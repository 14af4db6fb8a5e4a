/**
 * @file
 * The branch predictor interface.
 *
 * Predictors are driven by the trace simulator: for each dynamic
 * conditional branch it first asks for a prediction, then reveals the
 * resolved direction.  Predictors are deterministic state machines --
 * same trace in, same accuracy out.
 */

#ifndef BWSA_REFERENCE_PREDICTOR_HH
#define BWSA_REFERENCE_PREDICTOR_HH

#include <memory>
#include <string>

#include "trace/branch_record.hh"

namespace bwsa
{

/**
 * Abstract dynamic branch direction predictor.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Predict the direction of the branch at @p pc (true = taken). */
    virtual bool predict(BranchPc pc) = 0;

    /**
     * Train on the resolved direction.  Called after predict() for
     * the same dynamic instance.
     */
    virtual void update(BranchPc pc, bool taken) = 0;

    /** Human-readable configuration name for reports. */
    virtual std::string name() const = 0;

    /** Return all tables to their initial state. */
    virtual void reset() = 0;
};

/** Owning handle used throughout the simulator. */
using PredictorPtr = std::unique_ptr<Predictor>;

} // namespace bwsa

#endif // BWSA_REFERENCE_PREDICTOR_HH
