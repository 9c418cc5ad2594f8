/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded only around the benchmark's own calls into the
 * library (and inside the ByteSource/ByteSink decorators it hands to
 * the library), never inside libsage. Each thread appends to its own
 * buffer, so recording takes no lock; a thread-local stack supplies
 * the parent. Buffers live until the process writes them out at exit.
 * With tracing off, a ScopedSpan is one branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hh"

namespace perfbench {

/** Seconds on the benchmark's monotonic clock (process-relative). */
double now();

namespace trace {

/** Turn span recording on or off (call while no span is open). */
void setEnabled(bool enabled);
bool enabled();

/** Every span recorded so far, across threads. Call once the threads
 *  that recorded them have been joined. */
std::vector<Span> collect();

/** Drop every recorded span (between the halves of a traced run). */
void clear();

/** Write @p spans as JSON lines; false when the file cannot be
 *  written. */
bool writeJsonLines(const std::vector<Span> &spans,
                    const std::string &path);

} // namespace trace

/** Records one span over its lifetime when tracing is on. */
class ScopedSpan
{
  public:
    /** @p name must be a string literal (stored by pointer). A zero
     *  @p request_id inherits the enclosing span's request id. */
    explicit ScopedSpan(const char *name, uint64_t request_id = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_ = false;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
