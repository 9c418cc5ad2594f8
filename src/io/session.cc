#include "io/session.hh"

#include <algorithm>
#include <iterator>

#include "compress/streams.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace sage {

SageWriter::SageWriter(ByteSink &sink, SageConfig config)
    : sink_(&sink), config_(config)
{
}

SageWriter::SageWriter(const std::string &path, SageConfig config)
    : file_(std::make_unique<FileSink>(path)), sink_(file_.get()),
      config_(config)
{
}

SageWriter::~SageWriter() = default;

void
SageWriter::add(Read read)
{
    sage_assert(!finished_, "add() after finish()");
    pending_.reads.push_back(std::move(read));
}

void
SageWriter::add(const ReadSet &rs)
{
    sage_assert(!finished_, "add() after finish()");
    pending_.reads.insert(pending_.reads.end(), rs.reads.begin(),
                          rs.reads.end());
    if (pending_.name.empty())
        pending_.name = rs.name;
}

void
SageWriter::add(ReadSet &&rs)
{
    sage_assert(!finished_, "add() after finish()");
    if (pending_.reads.empty()) {
        pending_ = std::move(rs);
        return;
    }
    pending_.reads.insert(
        pending_.reads.end(),
        std::make_move_iterator(rs.reads.begin()),
        std::make_move_iterator(rs.reads.end()));
}

SageWriteStats
SageWriter::finish(std::string_view consensus, ThreadPool *pool)
{
    sage_assert(!finished_, "finish() called twice");
    finished_ = true;

    StreamBundle bundle;
    const SageArchive accounting =
        sageEncodeToBundle(pending_, consensus, config_, pool, bundle);
    pending_ = ReadSet{};

    SageWriteStats stats;
    stats.archiveBytes = bundle.writeTo(*sink_);
    sink_->flush();
    stats.streamSizes = accounting.streamSizes;
    stats.mapSeconds = accounting.mapSeconds;
    stats.encodeSeconds = accounting.encodeSeconds;
    stats.tuneSeconds = accounting.tuneSeconds;
    stats.dnaBytes = accounting.dnaBytes;
    stats.qualityBytes = accounting.qualityBytes;
    stats.metaBytes = accounting.metaBytes;
    return stats;
}

SageReader::SageReader(const ByteSource &source,
                       SageReaderOptions options)
    : source_(&source),
      decoder_(std::make_unique<SageDecoder>(source, options.dnaOnly,
                                             options.verifyChecksum))
{
    enablePrefetch(options);
}

SageReader::SageReader(const std::string &path, SageReaderOptions options)
    : file_(std::make_unique<FileSource>(path)), source_(file_.get()),
      decoder_(std::make_unique<SageDecoder>(*file_, options.dnaOnly,
                                             options.verifyChecksum))
{
    enablePrefetch(options);
}

Status
SageReader::verify() const
{
    return verifyArchiveChecksumStatus(*source_);
}

void
SageReader::enablePrefetch(const SageReaderOptions &options)
{
    if (!options.prefetch)
        return;
    prefetchPool_ = options.prefetchPool;
    if (!prefetchPool_) {
        // One thread suffices: the fetch task blocks on I/O, not CPU.
        ownedPrefetchPool_ = std::make_unique<ThreadPool>(1);
        prefetchPool_ = ownedPrefetchPool_.get();
    }
}

SageReader::~SageReader()
{
    // An in-flight fetch references the decoder; wait it out.
    if (ahead_.valid())
        ahead_.wait();
}

StatusOr<SageDecoder::ChunkBytes>
SageReader::fetchChunk(size_t chunk)
{
    if (!prefetchPool_)
        return decoder_->tryFetchChunk(chunk);

    // Take the slot. A stale speculation (a jump past it) is waited
    // out and dropped, so at most one background fetch is in flight.
    using Fetched = StatusOr<SageDecoder::ChunkBytes>;
    std::future<Fetched> slot = std::move(ahead_);
    const bool hit = slot.valid() && aheadChunk_ == chunk;
    if (slot.valid() && !hit)
        slot.wait();

    // Put the slot to work on the successor while the caller decodes
    // this chunk — only on a sequential walk, so scattered random
    // access pays no wasted fetches.
    if (chunk == expectedChunk_ && chunk + 1 < chunkCount()) {
        auto promise = std::make_shared<std::promise<Fetched>>();
        ahead_ = promise->get_future();
        aheadChunk_ = chunk + 1;
        const SageDecoder *decoder = decoder_.get();
        prefetchPool_->submit([promise, decoder, next = chunk + 1] {
            promise->set_value(decoder->tryFetchChunk(next));
        });
    }
    expectedChunk_ = chunk + 1;
    return hit ? slot.get() : decoder_->tryFetchChunk(chunk);
}

std::vector<Read>
SageReader::readChunk(size_t chunk)
{
    StatusOr<SageDecoder::ChunkBytes> bytes = fetchChunk(chunk);
    StatusOr<std::vector<Read>> reads = bytes.ok()
        ? decoder_->tryDecodeChunk(chunk, bytes.value())
        : StatusOr<std::vector<Read>>(bytes.status());
    if (!reads.ok())
        sage_fatal(source_->describe(), ": ", reads.status().message());
    return std::move(reads.value());
}

ReadSet
SageReader::decodeRange(size_t first_chunk, size_t chunk_count,
                        ThreadPool *pool)
{
    sage_assert(first_chunk <= chunkCount() &&
                chunk_count <= chunkCount() - first_chunk,
                "chunk range out of bounds");
    ReadSet rs;
    if (chunk_count == 0)
        return rs;
    const uint64_t base = chunkFirstRead(first_chunk);
    const size_t last = first_chunk + chunk_count - 1;
    rs.reads.resize(static_cast<size_t>(
        chunkFirstRead(last) + chunkReadCount(last) - base));
    auto place = [&](size_t chunk, std::vector<Read> &&reads) {
        std::move(reads.begin(), reads.end(),
                  rs.reads.begin() +
                      static_cast<ptrdiff_t>(chunkFirstRead(chunk) - base));
    };
    if (pool) {
        forEachChunk(*decoder_, first_chunk, chunk_count, pool, place);
    } else {
        // The serial walk goes through readChunk() for the fetch-ahead.
        for (size_t c = first_chunk; c <= last; c++)
            place(c, readChunk(c));
    }
    return rs;
}

ReadSet
SageReader::decodeAll(ThreadPool *pool)
{
    ReadSet rs = decodeRange(0, chunkCount(), pool);
    decoder_->restoreOrder(rs.reads);
    return rs;
}

Read
SageReader::next()
{
    sage_assert(hasNext(), "reader exhausted");
    while (cursorPos_ == cursorReads_.size()) {
        cursorReads_ = readChunk(cursorChunk_++);
        cursorPos_ = 0;
    }
    emitted_++;
    return std::move(cursorReads_[cursorPos_++]);
}

} // namespace sage
