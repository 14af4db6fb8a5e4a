/**
 * @file
 * The three perfbench workloads and the helpers they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>

#include "common.hh"
#include "profile/conflict_graph.hh"
#include "trace/trace.hh"

namespace perfbench
{

std::unique_ptr<Workload> makeFig3Serial(WorkloadEnv env);
std::unique_ptr<Workload> makeTable2Sharded(WorkloadEnv env);
std::unique_ptr<Workload> makeServeStream(WorkloadEnv env);

/**
 * Write the v2 container @p path holding one trace of @p preset: half
 * its length is the preset's reference input, the other half
 * @p inputs runs on input seeds derived from @p seed and
 * @p trace_index, back to back with timestamps kept ascending.  One
 * input seed flips the program's input-mode branches and can double a
 * trace's distinct conflict edges; the fixed reference half and the
 * many short seeded runs keep a run's cost steady across seeds while
 * every seed still changes the inputs.
 *
 * @param scale the whole trace's length as a preset scale
 */
void writeInputsTrace(const std::string &path, const std::string &preset,
                      double scale, std::uint64_t seed,
                      std::uint64_t trace_index, unsigned inputs);

/** Misprediction tally of one replayed lane. */
struct LaneMisses
{
    std::uint64_t mispredicted = 0;
    std::uint64_t executed = 0;
};

/**
 * Colour @p graph into 1024 BHT entries (paper-default allocation
 * config) and replay @p source through that allocated PAg: how well
 * the profile a workload produced predicts its own trace.
 */
LaneMisses alloc1024Misses(const bwsa::ConflictGraph &graph,
                           const bwsa::TraceSource &source);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
