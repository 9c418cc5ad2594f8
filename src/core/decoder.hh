/**
 * @file
 * SAGe streaming decompressor.
 *
 * Mirrors the hardware datapath (paper §5.2): a Scan Unit walk over the
 * position arrays/guide arrays and a Read Construction Unit walk over
 * the consensus and MBTA, emitting one read at a time with only
 * sequential accesses. The same functional core backs:
 *   - SAGeSW (host software decompression, paper §7 config v), and
 *   - the hardware timing model (hw/), which replays the stream sizes
 *     this decoder reports (ArchiveInfo).
 *
 * The decoder reads the container through a ByteSource
 * (io/byte_stream.hh): headers, chunk table and consensus are parsed
 * up front (a few KB of reads), while the 13 DNA streams are fetched
 * per chunk, exactly when a chunk is opened. Over a FileSource this
 * decodes any chunk subrange without ever loading the full archive;
 * over a MemorySource the per-chunk fetches are zero-copy views. A
 * StripedSource (io/striped.hh) serves chunk fetches from a device
 * array (paper Fig. 15).
 *
 * Container v2 archives carry a chunk index (format.hh): each chunk is
 * an independently decodable slice of the read set, the software
 * analogue of the paper's per-Scan-Unit slices. The one decode
 * primitive is tryDecodeChunk(): fetch a chunk's byte slices, walk
 * them, return its reads in stored order (or a Status). The decoder
 * is immutable after open and every decode method is const, so any
 * number of threads may decode through one instance. decodeAll() and
 * decodeAllPacked() drive tryDecodeChunk() over every chunk, serially
 * or fanned across a ThreadPool. v1 archives load as a single chunk.
 *
 * Most users should prefer the session API (io/session.hh:
 * SageWriter/SageReader) over constructing a SageDecoder directly.
 */

#ifndef SAGE_CORE_DECODER_HH
#define SAGE_CORE_DECODER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/format.hh"
#include "genomics/alphabet.hh"
#include "genomics/read.hh"
#include "io/byte_stream.hh"
#include "io/container.hh"

namespace sage {

class ThreadPool;

/** Per-archive structural info used by the hardware timing model. */
struct ArchiveInfo
{
    SageParams params;
    std::map<std::string, uint64_t> streamSizes;
    uint64_t totalCompressedBytes = 0;

    /** DNA-path bytes the accelerator must stream (no host streams). */
    uint64_t dnaStreamBytes() const;
};

/** Streaming decoder over a SAGe archive. */
class SageDecoder
{
  public:
    /**
     * Parse headers through @p source; cheap (the DNA streams are not
     * read until chunks are opened). The source must outlive us.
     *
     * @param dna_only skip the host-side quality/header streams: the
     *        read-mapping pipeline never touches quality scores (paper
     *        §5.1.5 — they are decoded lazily, per block, only around
     *        mismatches during later variant calling), so the prep
     *        stage feeding an accelerator decodes DNA alone.
     * @param verify_checksum stream the whole archive through CRC32
     *        before decoding (reads every byte; defeats the streaming
     *        constructor's laziness, so it is opt-in here).
     */
    explicit SageDecoder(const ByteSource &source, bool dna_only = false,
                         bool verify_checksum = false);

    /**
     * Legacy whole-buffer constructor: wraps @p archive in a
     * MemorySource and always verifies the container CRC (matching the
     * historical sageDecompress contract: any bit flip is fatal before
     * any read is produced). The archive bytes must outlive us.
     */
    explicit SageDecoder(const std::vector<uint8_t> &archive,
                         bool dna_only = false);
    ~SageDecoder();

    /**
     * Non-fatal open over untrusted bytes: every framing field, stream
     * table entry and header stream is bounds-checked, and any
     * malformed or unreadable input comes back as a Status
     * (Truncated/Corrupt/IoError/...) instead of killing the process.
     * The serving path (and anything else that must survive a bad
     * archive) opens through here; the fatal constructors remain the
     * CLI/batch contract.
     */
    static StatusOr<std::unique_ptr<SageDecoder>>
    tryOpen(const ByteSource &source, bool dna_only = false,
            bool verify_checksum = false);

    /** Structural info (sizes, params). */
    const ArchiveInfo &info() const { return info_; }

    /** Number of independently decodable chunks (1 for v1 archives). */
    size_t chunkCount() const { return chunks_.size(); }

    /** Reads stored in chunk @p chunk. */
    uint64_t chunkReadCount(size_t chunk) const;

    /** Stored-order index of chunk @p chunk's first read. */
    uint64_t chunkFirstRead(size_t chunk) const;

    /** Per-chunk compressed DNA bytes (slice sizes summed across the
     *  13 streams) — the I/O cost of fetching each chunk, used by the
     *  pipeline model to overlap chunk I/O with decode. */
    std::vector<uint64_t> chunkCompressedBytes() const;

    /**
     * One chunk's 13 stream slices, ready to decode: zero-copy views
     * where the source offers them, the rest gathered by one batched
     * read into an owned buffer. Move-only (the views point into that
     * buffer); only the decoder looks inside.
     */
    class ChunkBytes
    {
      public:
        ChunkBytes() = default;
        ChunkBytes(ChunkBytes &&) = default;
        ChunkBytes &operator=(ChunkBytes &&) = default;
        ChunkBytes(const ChunkBytes &) = delete;
        ChunkBytes &operator=(const ChunkBytes &) = delete;

      private:
        friend class SageDecoder;
        std::array<const uint8_t *, kChunkStreamCount> data_{};
        std::array<size_t, kChunkStreamCount> size_{};
        std::vector<uint8_t> owned_;
    };

    /**
     * Fetch chunk @p chunk's byte slices through the source. I/O
     * failures (and an out-of-range index) come back as a Status.
     */
    StatusOr<ChunkBytes> tryFetchChunk(size_t chunk) const;

    /**
     * Decode chunk @p chunk into stored-order reads — the decode
     * primitive every other read path drives. Fetches only this
     * chunk's slices, copies headers and quality (so the same chunk
     * decodes repeatably), and reports I/O failures and corrupt chunk
     * data as a Status instead of aborting.
     */
    StatusOr<std::vector<Read>> tryDecodeChunk(size_t chunk) const;

    /** Decode chunk @p chunk from @p bytes, fetched earlier by
     *  tryFetchChunk(@p chunk) — the seam a fetch-ahead reader uses to
     *  overlap the next chunk's I/O with this chunk's decode. */
    StatusOr<std::vector<Read>>
    tryDecodeChunk(size_t chunk, const ChunkBytes &bytes) const;

    /**
     * Decode everything into a ReadSet, restoring the original order
     * when the archive preserved it. With a pool and a multi-chunk
     * archive, chunks decode in parallel; the result is identical to
     * the serial path. Fatal on a chunk that fails to decode.
     */
    ReadSet decodeAll(ThreadPool *pool = nullptr) const;

    /**
     * Decode everything into packed analysis format — what SAGe_Read
     * hands to an accelerator (paper §5.4): per-read packed bases, in
     * stored order (unlike decodeAll(), no preserved-order
     * restoration). Optionally chunk-parallel, like decodeAll().
     */
    std::vector<std::vector<uint8_t>>
    decodeAllPacked(OutputFormat fmt, ThreadPool *pool = nullptr) const;

    /** Permute @p reads, every read of the archive in stored order,
     *  into the original order (no-op unless the archive preserved
     *  it). decodeAll() applies this itself. */
    void restoreOrder(std::vector<Read> &reads) const;

    /** Decoder working-set bytes: registers + consensus window model.
     *  (The HW streams the consensus; software keeps it resident.) */
    uint64_t workingSetBytes() const;

  private:
    struct ChunkCursor;

    /** Per-chunk slice bounds resolved from the chunk table. */
    struct ChunkSlice
    {
        uint64_t readCount = 0;
        uint64_t firstRead = 0;  ///< Prefix sum of readCount.
        std::array<uint64_t, kChunkStreamCount> offsets{};
        std::array<uint64_t, kChunkStreamCount> sizes{};
    };

    /** tryOpen's blank instance; every member has a safe default. */
    SageDecoder() = default;

    void parseContainer(bool dna_only);

    /** Status-returning core of parseContainer: parses and validates
     *  untrusted container framing, stream tables and host streams. */
    Status tryParseContainer(bool dna_only);

    /** Decode one read via @p cur; @p read_index is its stored-order
     *  position (indexes headers_/quals_). Throws StatusError on
     *  corrupt chunk data. */
    Read decodeOne(ChunkCursor &cur, uint64_t read_index) const;

    /** Owned backing for the legacy vector constructor. */
    std::unique_ptr<MemorySource> ownedSource_;
    const ByteSource *source_ = nullptr;
    StreamDirectory dir_;
    /** Absolute extents of the 13 DNA streams, ChunkStreamIndex order. */
    std::array<StreamExtent, kChunkStreamCount> dnaExtents_{};

    ArchiveInfo info_;
    std::string consensus_;

    // Host-side streams (owned; indexed by stored-order read index).
    std::vector<std::string> headers_;
    std::vector<std::string> quals_;
    std::vector<uint32_t> order_;

    // Field codecs are immutable after construction and shared by all
    // chunk cursors (decode() is const and thread-safe).
    std::unique_ptr<const TunedFieldCodec> matchCodec_, lenCodec_,
        countCodec_, posCodec_, segposCodec_, seglenCodec_;

    std::vector<ChunkSlice> chunks_;
};

/**
 * The one multi-chunk decode loop (decodeAll(), decodeAllPacked(),
 * SageReader::decodeRange() with a pool): tryDecodeChunk() over chunks
 * [@p first, @p first + @p count), serially or fanned across @p pool,
 * handing each chunk's stored-order reads to @p sink. On the parallel
 * path sink runs concurrently for distinct chunks. Fatal on a chunk
 * that fails to decode.
 */
void forEachChunk(const SageDecoder &decoder, size_t first, size_t count,
                  ThreadPool *pool,
                  const std::function<void(size_t, std::vector<Read> &&)>
                      &sink);

/** One-call convenience: decode a SAGe archive into a ReadSet. */
ReadSet sageDecompress(const std::vector<uint8_t> &archive);

} // namespace sage

#endif // SAGE_CORE_DECODER_HH
