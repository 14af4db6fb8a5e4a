#include "common.hh"

#include <cstdio>

#include "core/allocation.hh"
#include "predict/factory.hh"
#include "sim/batched_replay.hh"
#include "store/block_trace.hh"
#include "store/wire.hh"
#include "workload/presets.hh"
#include "workloads.hh"

namespace perfbench
{

std::string
digestHex(std::string_view bytes)
{
    const std::uint64_t h = bwsa::store::fnv1a64(
        bwsa::store::fnv1a64_basis, bytes.data(), bytes.size());
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

obs::JsonValue
jsonArray(const std::vector<double> &values)
{
    obs::JsonValue out = obs::JsonValue::array();
    for (double v : values)
        out.push(v);
    return out;
}

bool
OutputLog::check(const std::string &cell, const std::string &value)
{
    bool ok = true;
    if (!_expected.isNull()) {
        const obs::JsonValue *want = _expected.find(cell);
        ok = want && want->asString() == value;
    }
    if (const obs::JsonValue *seen = _first.find(cell))
        ok = ok && seen->asString() == value;
    else
        _first[cell] = value;
    return ok;
}

namespace
{

/** Share of every trace run on the preset's reference input. */
constexpr double reference_share = 0.5;

/** Forwards several executions as one stream with ascending stamps. */
class ConcatSink : public bwsa::TraceSink
{
  public:
    explicit ConcatSink(bwsa::TraceSink &out) : _out(out) {}

    void
    onBranch(const bwsa::BranchRecord &record) override
    {
        bwsa::BranchRecord shifted = record;
        shifted.timestamp += _base;
        _last = shifted.timestamp;
        _out.onBranch(shifted);
    }

    /** One execution ended; the next continues after its last stamp. */
    void onEnd() override { _base = _last; }

  private:
    bwsa::TraceSink &_out;
    std::uint64_t _base = 0;
    std::uint64_t _last = 0;
};

} // namespace

void
writeInputsTrace(const std::string &path, const std::string &preset,
                 double scale, std::uint64_t seed,
                 std::uint64_t trace_index, unsigned inputs)
{
    bwsa::store::BlockTraceWriter writer(path);
    ConcatSink sink(writer);
    bwsa::Workload reference =
        bwsa::makeWorkload(preset, "", scale * reference_share);
    reference.source().replay(sink);
    bwsa::Workload w = bwsa::makeWorkload(
        preset, "", scale * (1 - reference_share) / inputs);
    for (unsigned j = 0; j < inputs; ++j) {
        w.config.input_seed = inputSeed(seed, trace_index * inputs + j);
        w.source().replay(sink);
    }
    writer.close();
}

LaneMisses
alloc1024Misses(const bwsa::ConflictGraph &graph,
                const bwsa::TraceSource &source)
{
    bwsa::AllocationResult allocation =
        bwsa::allocateBranches(graph, 1024, bwsa::AllocationConfig());
    std::vector<bwsa::PredictionStats> stats = bwsa::replayBatched(
        source,
        {bwsa::allocatedSpec(std::move(allocation.assignment), 1024)});
    return {stats[0].mispredicts.events(), stats[0].mispredicts.total()};
}

} // namespace perfbench
