/**
 * @file
 * Seeded inputs and the archives built from them.
 *
 * Every archive is synthesized from the workload seed (simgen), built
 * with SageWriter through a TimingSink, then decoded once in full
 * through a TimingSource and checked read by read against the input.
 * That verified decode yields per-read digests in stored order, which
 * every later delivery (readChunk, READ_RANGE) is checked against.
 */

#ifndef PERFBENCH_CORPUS_HH
#define PERFBENCH_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/read.hh"
#include "io/session.hh"
#include "probes.hh"

namespace perfbench {

/** 64-bit digest of header, bases and quality of one read. */
uint64_t readDigest(const sage::Read &read);

/** Payload bytes of one read: bases + quality + header. */
inline uint64_t
payloadBytes(const sage::Read &read)
{
    return read.header.size() + read.bases.size() + read.quals.size();
}

uint64_t payloadBytes(const std::vector<sage::Read> &reads);

/** Shape of one synthesized read set. */
struct SetSpec
{
    std::string name;       ///< Also the read-header prefix.
    bool longRead = false;  ///< RS4-like when set, else RS2-like.
    uint32_t referenceKiB = 64;
    double depth = 8.0;
    uint32_t chunkReads = 1024;
    uint64_t seed = 1;
};

/** A synthesized read set plus the reference it is encoded against. */
struct InputSet
{
    SetSpec spec;
    sage::ReadSet reads;
    std::string reference;
};

InputSet synthesize(const SetSpec &spec);

/** Encoder-side accounting summed over SageWriter sessions. */
struct EncodeLedger
{
    double mapSeconds = 0.0;
    double encodeSeconds = 0.0;
    double tuneSeconds = 0.0;
    uint64_t dnaBytes = 0;
    uint64_t qualityBytes = 0;
    uint64_t metaBytes = 0;
    uint64_t archiveBytes = 0;
    uint64_t fastqBytes = 0;
    uint64_t pendingReadsMax = 0;
    IoCounters write;
};

/** Decoder-side accounting summed over SageReader::readChunk calls. */
struct DecodeLedger
{
    uint64_t chunks = 0;
    uint64_t reads = 0;
    double chunkSeconds = 0.0;  ///< readChunk wall, fetches included.
    double fetchSeconds = 0.0;  ///< Fetch time inside those calls.
    uint64_t shortPayload = 0;
    double shortSeconds = 0.0;
    uint64_t longPayload = 0;
    double longSeconds = 0.0;
    IoCounters fetch;
};

/** Encode @p input with SageWriter into @p path. */
sage::SageWriteStats writeArchive(const InputSet &input,
                                  std::vector<sage::Read> reads,
                                  const std::string &path,
                                  EncodeLedger &ledger);

/**
 * Open @p path through a TimingSource. The reader keeps a pointer to
 * the source, so both live in one object.
 */
struct TimedReader
{
    TimedReader(const std::string &path, DecodeLedger &ledger);

    /** Decode one chunk, crediting @p ledger (long-read chunks are
     *  credited to the long-read decode rate). */
    std::vector<sage::Read> readChunk(size_t chunk, bool long_read);

    sage::FileSource file;
    TimingSource source;
    sage::SageReader reader;
    DecodeLedger &ledger;
};

/** An archive on disk, verified against its input. */
struct BuiltArchive
{
    std::string name;
    std::string path;
    bool longRead = false;
    uint64_t readCount = 0;
    size_t chunkCount = 0;
    uint64_t fastqBytes = 0;
    uint64_t archiveBytes = 0;
    uint64_t payloadBytes = 0;
    /** Digest of every read in stored order. */
    std::vector<uint64_t> digests;
    /** Payload-byte prefix sums in stored order (size readCount + 1). */
    std::vector<uint64_t> payloadPrefix;
};

/**
 * Decode every chunk of @p path and check the reads against
 * @p expected (matched by header, byte for byte). Fills @p out's
 * digests on success; false on any mismatch (reported on stderr).
 */
bool verifyArchive(const std::string &path,
                   const std::vector<sage::Read> &expected,
                   bool long_read, DecodeLedger &ledger,
                   BuiltArchive &out);

/** Synthesize, write and verify one archive into @p dir. */
bool buildArchive(const SetSpec &spec, const std::string &dir,
                  EncodeLedger &encode, DecodeLedger &decode,
                  BuiltArchive &out);

/** Count of reads in @p reads whose digest differs from
 *  @p archive's digests starting at stored index @p first. */
uint64_t countMismatches(const BuiltArchive &archive, uint64_t first,
                         const std::vector<sage::Read> &reads);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_HH
