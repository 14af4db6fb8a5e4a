/**
 * @file
 * Trace stream abstractions.
 *
 * Producers (the synthetic executor, trace file readers) push records
 * into a TraceSink; consumers that need to re-read a stream use a
 * TraceSource.  MemoryTrace implements both so small traces can be
 * captured once and replayed into several analyses.
 *
 * Buffered sources (trace files, MemoryTrace, streamed Appends)
 * deliver a block of consecutive records per TraceSink::onBlock()
 * call; the analysis sinks run one kernel over the block, and their
 * onBranch() is a one-record block.
 */

#ifndef BWSA_TRACE_TRACE_HH
#define BWSA_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/branch_record.hh"

namespace bwsa
{

class TraceSegment;

/**
 * Consumer of a dynamic branch stream.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Deliver one dynamic branch instance; timestamps must ascend. */
    virtual void onBranch(const BranchRecord &record) = 0;

    /**
     * Deliver consecutive records in stream order.  Sources check
     * done() before each call, not inside it.  The default hands the
     * records to onBranch() one at a time and checks done() before
     * each, so a sink that only overrides onBranch() sees exactly
     * what per-record delivery would show it.  Sinks with a block
     * kernel override this and make onBranch() a one-record block.
     */
    virtual void
    onBlock(std::span<const BranchRecord> records)
    {
        for (const BranchRecord &record : records) {
            if (done())
                return;
            onBranch(record);
        }
    }

    /** Signal end of the stream. Default: nothing to finalize. */
    virtual void onEnd() {}

    /**
     * True when further records are useless to this sink (e.g. an
     * instruction budget was hit).  Sources check this between
     * records (between blocks when they deliver blocks) and stop
     * replaying early instead of draining the full stream; onEnd() is
     * still delivered.  Default: never done.
     */
    virtual bool done() const { return false; }
};

/**
 * Re-readable producer of a dynamic branch stream.
 *
 * Beyond whole-stream replay, every source supports *range replay*
 * (deliver only records [begin, end) by stream position) and can hand
 * out independent segment readers via segments(), which is what the
 * sharded profiling engine uses to analyze one trace on several
 * threads.  Subclasses override replayRange()/recordCount() when they
 * can do better than the generic skip-and-truncate default.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Push the whole stream into @p sink, followed by onEnd().
     * Must be callable repeatedly, replaying the identical stream.
     */
    virtual void replay(TraceSink &sink) const = 0;

    /**
     * Push records [begin, end) -- counted by stream position, 0-based
     * -- into @p sink, followed by onEnd().  An @p end beyond the
     * stream delivers up to the stream's end.  The default
     * implementation replays the whole stream through a range filter
     * that stops early once @p end is reached (sources honour
     * TraceSink::done()), so the prefix is skipped cheaply but still
     * produced; seekable sources override this.
     */
    virtual void replayRange(TraceSink &sink, std::uint64_t begin,
                             std::uint64_t end) const;

    /**
     * Total records one replay() delivers.  The default implementation
     * counts by replaying into a null sink -- O(stream); sources that
     * know their length (in-memory buffers, trace file headers)
     * override it.
     */
    virtual std::uint64_t recordCount() const;

    /**
     * Split the stream into @p k contiguous, non-overlapping segments
     * covering it exactly; each segment is an independent TraceSource
     * over its range, so the segments can replay concurrently.  Record
     * counts per segment differ by at most one.  Fewer than @p k
     * segments are returned when the stream is shorter than @p k.
     *
     * @param k number of segments requested (>= 1)
     */
    std::vector<TraceSegment> segments(unsigned k) const;
};

/**
 * One contiguous chunk [begin, end) of a parent source; replayable and
 * itself range-replayable (nested ranges compose).  Holds a pointer to
 * the parent, which must outlive the segment.
 */
class TraceSegment : public TraceSource
{
  public:
    TraceSegment() = default;

    TraceSegment(const TraceSource &parent, std::uint64_t begin,
                 std::uint64_t end)
        : _parent(&parent), _begin(begin), _end(end)
    {}

    void
    replay(TraceSink &sink) const override
    {
        _parent->replayRange(sink, _begin, _end);
    }

    void
    replayRange(TraceSink &sink, std::uint64_t begin,
                std::uint64_t end) const override
    {
        std::uint64_t lo = _begin + begin;
        std::uint64_t hi = _begin + end;
        if (lo > _end)
            lo = _end;
        if (hi > _end)
            hi = _end;
        _parent->replayRange(sink, lo, hi);
    }

    std::uint64_t recordCount() const override { return _end - _begin; }

    /** First record position (in the parent stream). */
    std::uint64_t begin() const { return _begin; }

    /** One past the last record position (in the parent stream). */
    std::uint64_t end() const { return _end; }

  private:
    const TraceSource *_parent = nullptr;
    std::uint64_t _begin = 0;
    std::uint64_t _end = 0;
};

/**
 * Pass-through sink forwarding only records whose stream position
 * falls in [begin, end); reports done() once the range is exhausted so
 * sources stop replaying instead of draining the stream.  Backs the
 * default TraceSource::replayRange().
 */
class RangeFilterSink : public TraceSink
{
  public:
    /** @param inner downstream sink (not owned) */
    RangeFilterSink(TraceSink &inner, std::uint64_t begin,
                    std::uint64_t end)
        : _inner(inner), _begin(begin), _end(end)
    {}

    void
    onBranch(const BranchRecord &record) override
    {
        std::uint64_t pos = _position++;
        if (pos >= _begin && pos < _end)
            _inner.onBranch(record);
    }

    void onEnd() override { _inner.onEnd(); }

    bool
    done() const override
    {
        return _position >= _end || _inner.done();
    }

    /** Records seen so far (forwarded or skipped). */
    std::uint64_t position() const { return _position; }

  private:
    TraceSink &_inner;
    std::uint64_t _begin;
    std::uint64_t _end;
    std::uint64_t _position = 0;
};

/**
 * In-memory trace buffer; both a sink and a replayable source.
 * Replay hands the buffer out in onBlock() calls of at most
 * replay_block_records records, straight from the buffer, and checks
 * done() between calls.
 */
class MemoryTrace : public TraceSink, public TraceSource
{
  public:
    void
    onBranch(const BranchRecord &record) override
    {
        _records.push_back(record);
    }

    /** Capture a delivered block in one append. */
    void
    onBlock(std::span<const BranchRecord> records) override
    {
        _records.insert(_records.end(), records.begin(), records.end());
    }

    void replay(TraceSink &sink) const override;

    void replayRange(TraceSink &sink, std::uint64_t begin,
                     std::uint64_t end) const override;

    std::uint64_t recordCount() const override
    {
        return _records.size();
    }

    /** Number of buffered records. */
    std::size_t size() const { return _records.size(); }

    bool empty() const { return _records.empty(); }

    /** Random access to buffered records. */
    const BranchRecord &operator[](std::size_t i) const
    {
        return _records[i];
    }

    const std::vector<BranchRecord> &records() const { return _records; }

    /** Drop all buffered records. */
    void clear() { _records.clear(); }

    /** Reserve space for an expected record count. */
    void reserve(std::size_t n) { _records.reserve(n); }

  private:
    /** Records per onBlock() call of a replay. */
    static constexpr std::size_t replay_block_records = 4096;

    std::vector<BranchRecord> _records;
};

/**
 * Broadcast sink delivering each record to several downstream sinks,
 * so one pass over a trace can feed the profiler and a predictor
 * simulation simultaneously.
 */
class FanoutSink : public TraceSink
{
  public:
    /** Append a downstream sink (not owned; must outlive the fanout). */
    void addSink(TraceSink &sink) { _sinks.push_back(&sink); }

    void
    onBranch(const BranchRecord &record) override
    {
        for (TraceSink *s : _sinks)
            s->onBranch(record);
    }

    void
    onEnd() override
    {
        for (TraceSink *s : _sinks)
            s->onEnd();
    }

    /** Done only when every downstream sink is done. */
    bool
    done() const override
    {
        if (_sinks.empty())
            return false;
        for (const TraceSink *s : _sinks)
            if (!s->done())
                return false;
        return true;
    }

    std::size_t sinkCount() const { return _sinks.size(); }

  private:
    std::vector<TraceSink *> _sinks;
};

/**
 * Sink that stops accepting records after a fixed budget, mirroring
 * the paper's "run for the first 500 million instructions" rule.
 */
class TruncatingSink : public TraceSink
{
  public:
    /**
     * @param inner           downstream sink (not owned)
     * @param max_instructions highest timestamp forwarded (0 = no limit)
     */
    TruncatingSink(TraceSink &inner, std::uint64_t max_instructions)
        : _inner(inner), _limit(max_instructions)
    {}

    void
    onBranch(const BranchRecord &record) override
    {
        if (_limit != 0 && record.timestamp > _limit) {
            _saturated = true;
            return;
        }
        _inner.onBranch(record);
    }

    void onEnd() override { _inner.onEnd(); }

    /**
     * Early-stop: once the budget has truncated a record nothing else
     * can pass (timestamps ascend), so sources may stop replaying
     * instead of draining the rest of the stream.
     */
    bool done() const override { return _saturated || _inner.done(); }

    /** True when the limit actually truncated anything. */
    bool saturated() const { return _saturated; }

  private:
    TraceSink &_inner;
    std::uint64_t _limit;
    bool _saturated = false;
};

} // namespace bwsa

#endif // BWSA_TRACE_TRACE_HH
