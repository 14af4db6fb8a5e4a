/**
 * @file
 * Misprediction clustering analysis -- the open question the paper
 * poses in its future work: "Are the clustered branch mispredictions
 * found in recent work on dynamic prediction caused by changes in
 * working set?"
 *
 * This analysis replays a predictor over a trace while simultaneously
 * (a) grouping mispredictions into bursts (maximal runs of misses
 * separated by fewer than a gap of correctly predicted branches) and
 * (b) counting working-set shifts as the phase boundaries of the one
 * phase engine (obs/phase_detect.hh) over the same trace: low Jaccard
 * similarity between the branch populations of consecutive
 * instruction windows.  It then contrasts the miss rate in the
 * aftermath of a shift against the steady-state miss rate,
 * quantifying how much of the clustering is attributable to
 * working-set change.
 */

#ifndef BWSA_SIM_CLUSTER_ANALYSIS_HH
#define BWSA_SIM_CLUSTER_ANALYSIS_HH

#include <cstdint>

#include "obs/phase_detect.hh"
#include "predict/factory.hh"
#include "trace/trace.hh"
#include "util/stats.hh"

namespace bwsa
{

/** Knobs of the clustering analysis. */
struct ClusterConfig
{
    /**
     * Working-set window width in retired instructions (the phase
     * accumulator's interval); each phase boundary is one shift.
     */
    std::uint64_t interval = 4096;

    /** Phase-boundary rule applied to the windows. */
    obs::PhaseDetectorConfig phases;

    /** Misses separated by fewer correct branches fuse into a burst. */
    std::size_t burst_gap = 8;

    /** Minimum misses for a run to count as a burst. */
    std::size_t burst_min = 4;

    /**
     * Branches considered "near" a shift, counted from the record
     * that closes the boundary window.
     */
    std::size_t aftermath = 512;
};

/** Results of the clustering analysis. */
struct ClusterReport
{
    std::uint64_t branches = 0;      ///< dynamic branches simulated
    std::uint64_t misses = 0;        ///< total mispredictions

    std::uint64_t bursts = 0;        ///< qualifying miss bursts
    std::uint64_t burst_misses = 0;  ///< misses inside bursts
    double avg_burst_length = 0.0;   ///< mean misses per burst

    std::uint64_t shifts = 0;        ///< phase boundaries observed

    /** Miss ratio within `aftermath` branches of a shift. */
    RatioStat near_shift;

    /** Miss ratio everywhere else (steady state). */
    RatioStat steady;

    /** Fraction of all misses that occur inside bursts. */
    double
    burstMissFraction() const
    {
        return misses ? static_cast<double>(burst_misses) /
                            static_cast<double>(misses)
                      : 0.0;
    }

    /**
     * How many times likelier a miss is near a working-set shift
     * than in steady state (>1 supports the paper's conjecture).
     */
    double
    shiftMissAmplification() const
    {
        double steady_rate = steady.ratio();
        return steady_rate > 0.0 ? near_shift.ratio() / steady_rate
                                 : 0.0;
    }
};

/**
 * Run the clustering analysis over one trace with the predictor
 * @p spec describes: one batched replay of one lane, whose miss bits
 * are folded block by block.
 */
ClusterReport
analyzeMispredictionClustering(const TraceSource &source,
                               const PredictorSpec &spec,
                               const ClusterConfig &config = {});

} // namespace bwsa

#endif // BWSA_SIM_CLUSTER_ANALYSIS_HH
