#include "trace/trace.hh"

#include <algorithm>

namespace bwsa
{

namespace
{

/** Sink that only counts; used by the default recordCount(). */
class CountingSink : public TraceSink
{
  public:
    void onBranch(const BranchRecord &) override { ++_count; }

    std::uint64_t count() const { return _count; }

  private:
    std::uint64_t _count = 0;
};

} // namespace

void
TraceSource::replayRange(TraceSink &sink, std::uint64_t begin,
                         std::uint64_t end) const
{
    RangeFilterSink range(sink, begin, end);
    replay(range);
}

std::uint64_t
TraceSource::recordCount() const
{
    CountingSink counter;
    replay(counter);
    return counter.count();
}

std::vector<TraceSegment>
TraceSource::segments(unsigned k) const
{
    if (k == 0)
        k = 1;
    std::uint64_t total = recordCount();

    std::vector<TraceSegment> out;
    std::uint64_t count =
        total < k ? total : static_cast<std::uint64_t>(k);
    if (count == 0) {
        // Empty stream: a single empty segment keeps callers simple.
        out.emplace_back(*this, 0, 0);
        return out;
    }
    // Contiguous split with sizes differing by at most one: the first
    // (total % count) segments get one extra record.
    std::uint64_t base = total / count;
    std::uint64_t extra = total % count;
    std::uint64_t begin = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t size = base + (i < extra ? 1 : 0);
        out.emplace_back(*this, begin, begin + size);
        begin += size;
    }
    return out;
}

void
MemoryTrace::replay(TraceSink &sink) const
{
    replayRange(sink, 0, _records.size());
}

void
MemoryTrace::replayRange(TraceSink &sink, std::uint64_t begin,
                         std::uint64_t end) const
{
    const std::uint64_t hi = std::min<std::uint64_t>(end, _records.size());
    for (std::uint64_t at = begin; at < hi && !sink.done();) {
        const std::uint64_t n =
            std::min<std::uint64_t>(hi - at, replay_block_records);
        sink.onBlock(std::span<const BranchRecord>(
            _records.data() + at, static_cast<std::size_t>(n)));
        at += n;
    }
    sink.onEnd();
}

} // namespace bwsa
