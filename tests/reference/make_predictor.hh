/**
 * @file
 * Build a reference predictor object from a PredictorSpec.
 */

#ifndef BWSA_REFERENCE_MAKE_PREDICTOR_HH
#define BWSA_REFERENCE_MAKE_PREDICTOR_HH

#include "predict/factory.hh"
#include "reference/predictor.hh"

namespace bwsa
{

/** Build a predictor; panics on inconsistent specs. */
PredictorPtr makePredictor(const PredictorSpec &spec);

} // namespace bwsa

#endif // BWSA_REFERENCE_MAKE_PREDICTOR_HH
