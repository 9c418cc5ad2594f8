#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

namespace trace {
namespace {

std::atomic<bool> gEnabled{false};

/** One thread's spans plus its open-span stack. */
struct Buffer
{
    uint64_t threadTag = 0;
    uint64_t nextId = 1;
    std::vector<Span> spans;
    std::vector<const Span *> stack;
};

std::mutex gRegistryMutex;
std::vector<std::unique_ptr<Buffer>> gBuffers;  // Guarded by the mutex.

Buffer &
localBuffer()
{
    thread_local Buffer *buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        gBuffers.push_back(std::make_unique<Buffer>());
        buffer = gBuffers.back().get();
        buffer->threadTag = gBuffers.size();
    }
    return *buffer;
}

} // namespace

void
setEnabled(bool enabled)
{
    gEnabled.store(enabled, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

std::vector<Span>
collect()
{
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    std::vector<Span> all;
    for (const auto &buffer : gBuffers)
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    return all;
}

void
clear()
{
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (const auto &buffer : gBuffers)
        buffer->spans.clear();
}

bool
writeJsonLines(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    for (const Span &span : spans) {
        std::fprintf(out,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%llu,\"start\":%.9f,\"end\":%.9f}\n",
                     span.name,
                     static_cast<unsigned long long>(span.id),
                     static_cast<unsigned long long>(span.parent),
                     static_cast<unsigned long long>(span.requestId),
                     span.start, span.end);
    }
    return std::fclose(out) == 0;
}

} // namespace trace

ScopedSpan::ScopedSpan(const char *name, uint64_t request_id)
{
    if (!trace::enabled())
        return;
    trace::Buffer &buffer = trace::localBuffer();
    active_ = true;
    span_.name = name;
    // Thread tag in the high bits keeps ids unique without atomics.
    span_.id = (buffer.threadTag << 40) | buffer.nextId++;
    if (!buffer.stack.empty()) {
        span_.parent = buffer.stack.back()->id;
        if (request_id == 0)
            request_id = buffer.stack.back()->requestId;
    }
    span_.requestId = request_id;
    buffer.stack.push_back(&span_);
    span_.start = now();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.end = now();
    trace::Buffer &buffer = trace::localBuffer();
    buffer.stack.pop_back();
    buffer.spans.push_back(span_);
}

} // namespace perfbench
