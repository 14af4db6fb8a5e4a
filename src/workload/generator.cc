#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "workload/builder.hh"

namespace bwsa
{

namespace
{

/** Long-run probability that a behaviour resolves taken. */
double
expectedTakenRate(const BranchBehavior &behavior)
{
    switch (behavior.kind) {
      case BehaviorKind::Biased:
        return behavior.p_taken;
      case BehaviorKind::Periodic: {
        unsigned ones = 0;
        for (unsigned i = 0; i < behavior.pattern_len; ++i)
            ones += (behavior.pattern >> i) & 1u;
        return static_cast<double>(ones) /
               static_cast<double>(behavior.pattern_len);
      }
      case BehaviorKind::Markov:
        // The symmetric repeat/flip chain is stationary at 1/2.
        return 0.5;
      case BehaviorKind::DataHash:
        return behavior.threshold;
      case BehaviorKind::InputMode:
        // Unknown at generation time; each input seed fixes it.
        return 0.5;
    }
    return 0.5;
}

/**
 * Expected instructions of one execution of @p stmt, given the
 * expected costs of every callee procedure.
 */
double
expectedCost(const Stmt &stmt, const std::vector<double> &proc_costs)
{
    switch (stmt.kind) {
      case StmtKind::Sequence: {
        double sum = 0.0;
        for (const StmtPtr &child : stmt.stmts)
            sum += expectedCost(*child, proc_costs);
        return sum;
      }
      case StmtKind::Compute:
        return stmt.instructions;
      case StmtKind::If: {
        // The branch is taken when the condition fails (then-body
        // skipped); the else body costs one extra jump.
        double p_taken = expectedTakenRate(stmt.behavior);
        double cost = 1.0 +
                      (1.0 - p_taken) *
                          expectedCost(*stmt.then_body, proc_costs);
        if (stmt.else_body)
            cost += p_taken *
                    (1.0 + expectedCost(*stmt.else_body, proc_costs));
        return cost;
      }
      case StmtKind::Loop: {
        double trips = std::min(stmt.mean_trips,
                                static_cast<double>(stmt.max_trips));
        return trips * (expectedCost(*stmt.body, proc_costs) + 1.0);
      }
      case StmtKind::Switch: {
        double total_weight = 0.0;
        for (double w : stmt.case_weights)
            total_weight += w;
        std::size_t k = stmt.cases.size();
        double cost = 1.0; // join jump
        for (std::size_t c = 0; c < k; ++c) {
            double p = stmt.case_weights[c] / total_weight;
            double cascade =
                static_cast<double>(std::min(c, k - 2) + 1);
            cost += p * (cascade +
                         expectedCost(*stmt.cases[c], proc_costs));
        }
        return cost;
      }
      case StmtKind::Call:
        return 2.0 + proc_costs[stmt.callee];
    }
    return 0.0;
}

/**
 * Stateful generator so that the RNG threads through every decision
 * and the whole program is a pure function of the structure seed.
 */
class GeneratorImpl
{
  public:
    explicit GeneratorImpl(const WorkloadParams &params)
        : _p(params), _rng(params.structure_seed, 0x9e3779b97f4a7c15ULL),
          _behavior_sampler({params.mix.w_biased_high,
                             params.mix.w_biased_mid,
                             params.mix.w_markov, params.mix.w_periodic,
                             params.mix.w_datahash})
    {}

    GeneratedProgram generate();

  private:
    BranchBehavior randomBehavior();
    StmtPtr genBody(std::size_t budget, unsigned depth,
                    std::size_t proc_index);
    StmtPtr genCall(std::size_t proc_index, std::size_t &budget);
    StmtPtr genMain();

    const WorkloadParams &_p;
    Pcg32 _rng;
    DiscreteSampler _behavior_sampler;
    unsigned _next_mode_bit = 0;

    /** Expected cost per procedure, filled callee-first. */
    std::vector<double> _proc_costs;

    /** Current trip-count damping while calibrating one procedure. */
    double _trip_multiplier = 1.0;

    /** Call sites emitted in the procedure being generated. */
    std::size_t _calls_in_proc = 0;
};

BranchBehavior
GeneratorImpl::randomBehavior()
{
    double u = _rng.nextDouble();
    switch (_behavior_sampler.sample(_rng)) {
      case 0: { // highly biased, either direction
        double high = _p.mix.bias_high +
                      u * (1.0 - _p.mix.bias_high);
        return BranchBehavior::biased(_rng.nextBool(0.5) ? high
                                                         : 1.0 - high);
      }
      case 1: { // moderately biased data test, either direction
        double p = 0.7 + 0.2 * u;
        return BranchBehavior::biased(_rng.nextBool(0.5) ? p
                                                         : 1.0 - p);
      }
      case 2: // sticky mode flag
        return BranchBehavior::markov(0.90 + 0.095 * u);
      case 3: { // short repeating pattern
        unsigned len = _rng.nextRange(2, 8);
        std::uint32_t pattern = _rng.next() & lowMask(len);
        return BranchBehavior::periodic(pattern, len);
      }
      default: // data-dependent pseudo-random
        return BranchBehavior::dataHash(_rng.next64(), 0.3 + 0.4 * u);
    }
}

StmtPtr
GeneratorImpl::genCall(std::size_t proc_index, std::size_t &budget)
{
    std::size_t lo = proc_index + 1;
    std::size_t hi = std::min(proc_index + _p.call_span,
                              _p.num_procedures - 1);
    if (lo > hi || budget < 1 ||
        _calls_in_proc >= _p.max_calls_per_proc)
        return nullptr;
    ++_calls_in_proc;
    --budget;
    std::size_t callee = lo + _rng.nextBounded(
        static_cast<std::uint32_t>(hi - lo + 1));
    StmtPtr call = callOf(callee);
    // Occasionally gate the call behind an input-configuration flag so
    // different input sets exercise different callees; otherwise guard
    // it with a mostly-skipping branch so helper invocations stay
    // cold and call-chain costs do not compound.
    if (_rng.nextBool(_p.input_mode_prob))
        return ifOf(BranchBehavior::inputMode(_next_mode_bit++ % 64),
                    std::move(call));
    return ifOf(BranchBehavior::biased(1.0 - _p.call_exec_prob),
                std::move(call));
}

StmtPtr
GeneratorImpl::genBody(std::size_t budget, unsigned depth,
                       std::size_t proc_index)
{
    StmtPtr seq = Stmt::makeSequence();
    seq->stmts.push_back(compute(_rng.nextRange(1, 6)));

    while (budget > 0) {
        double loop_w =
            (depth < _p.max_loop_depth && budget >= 3) ? _p.loop_weight
                                                       : 0.0;
        double switch_w = budget >= 3 ? _p.switch_weight : 0.0;
        double call_w = _p.call_weight;
        DiscreteSampler kind_sampler(
            {_p.if_weight, loop_w, switch_w, call_w});

        switch (kind_sampler.sample(_rng)) {
          case 0: { // if / if-else
            --budget;
            StmtPtr then_body;
            if (budget > 0 && _rng.nextBool(0.4)) {
                std::size_t sub = 1 + _rng.nextBounded(
                    static_cast<std::uint32_t>(
                        std::min<std::size_t>(budget, 4)));
                budget -= sub;
                then_body = genBody(sub, depth, proc_index);
            } else {
                then_body = compute(_rng.nextRange(1, 5));
            }
            StmtPtr else_body;
            if (budget > 0 && _rng.nextBool(0.25)) {
                std::size_t sub = 1 + _rng.nextBounded(
                    static_cast<std::uint32_t>(
                        std::min<std::size_t>(budget, 3)));
                budget -= sub;
                else_body = genBody(sub, depth, proc_index);
            }
            seq->stmts.push_back(Stmt::makeIf(randomBehavior(),
                                              std::move(then_body),
                                              std::move(else_body)));
            break;
          }

          case 1: { // loop
            // Long scan/copy loops: hundreds of trips over a tiny
            // leaf body (no calls, no nesting -- anything heavier
            // inside a 100+-trip loop would defeat the per-call cost
            // calibration), top level only; their backedges classify
            // biased-taken.
            if (depth == 0 && _rng.nextBool(_p.long_loop_prob)) {
                std::size_t sub = 1 + _rng.nextBounded(
                    static_cast<std::uint32_t>(
                        std::min<std::size_t>(budget - 1, 2)));
                budget -= sub + 1;
                auto trips = static_cast<std::uint32_t>(
                    std::max(110.0, (110.0 + 190.0 *
                                     _rng.nextDouble()) *
                                        _trip_multiplier));
                StmtPtr leaf = Stmt::makeSequence();
                leaf->stmts.push_back(compute(_rng.nextRange(1, 3)));
                for (std::size_t b = 0; b < sub; ++b) {
                    // Scan-loop bodies are rare-hit checks: highly
                    // biased, so they classify with their backedge.
                    double high = _p.mix.bias_high +
                                  _rng.nextDouble() *
                                      (1.0 - _p.mix.bias_high);
                    leaf->stmts.push_back(
                        ifOf(BranchBehavior::biased(
                                 _rng.nextBool(0.5) ? high
                                                    : 1.0 - high),
                             compute(_rng.nextRange(1, 3))));
                }
                seq->stmts.push_back(
                    fixedLoopOf(trips, std::move(leaf)));
                seq->stmts.push_back(
                    compute(_rng.nextRange(1, 3)));
                break;
            }
            std::size_t sub = 1 + _rng.nextBounded(
                static_cast<std::uint32_t>(
                    std::min<std::size_t>(budget - 1, 12)));
            budget -= sub + 1;
            double trip_scale =
                (0.4 + 1.8 * _rng.nextDouble()) * _trip_multiplier;
            // Nested loops get geometrically shorter trips so deep
            // nests do not blow up the per-call instruction cost.
            for (unsigned d = 0; d < depth; ++d)
                trip_scale *= 0.35;
            double mean =
                std::max(1.5, _p.mean_inner_trips * trip_scale);
            StmtPtr loop_body = genBody(sub, depth + 1, proc_index);
            if (_rng.nextBool(_p.fixed_trip_prob)) {
                // Deterministic trip count (mean >= max is the
                // executor's fixed-count convention).
                auto trips = static_cast<std::uint32_t>(
                    std::max(2.0, std::round(mean)));
                seq->stmts.push_back(
                    fixedLoopOf(trips, std::move(loop_body)));
            } else {
                seq->stmts.push_back(loopOf(mean, _p.max_inner_trips,
                                            std::move(loop_body)));
            }
            break;
          }

          case 2: { // switch
            std::size_t k = 2 + _rng.nextBounded(3); // 2..4 cases
            if (k - 1 > budget)
                k = budget + 1;
            budget -= k - 1;
            std::vector<double> weights;
            std::vector<StmtPtr> cases;
            for (std::size_t c = 0; c < k; ++c) {
                weights.push_back(1.0 /
                                  static_cast<double>(1 + c * c));
                cases.push_back(compute(_rng.nextRange(1, 4)));
            }
            seq->stmts.push_back(switchOf(std::move(weights),
                                          std::move(cases)));
            break;
          }

          default: { // call
            StmtPtr call = genCall(proc_index, budget);
            if (call)
                seq->stmts.push_back(std::move(call));
            else
                seq->stmts.push_back(compute(_rng.nextRange(1, 4)));
            break;
          }
        }
        seq->stmts.push_back(compute(_rng.nextRange(1, 3)));
    }
    return seq;
}

StmtPtr
GeneratorImpl::genMain()
{
    std::size_t callable = _p.num_procedures - 1;
    std::size_t stride = _p.procs_per_phase > _p.phase_overlap
                             ? _p.procs_per_phase - _p.phase_overlap
                             : 1;

    StmtPtr phases = Stmt::makeSequence();
    for (std::size_t phase = 0; phase < _p.num_phases; ++phase) {
        StmtPtr body = Stmt::makeSequence();
        body->stmts.push_back(compute(_rng.nextRange(1, 4)));
        for (std::size_t k = 0; k < _p.procs_per_phase; ++k) {
            std::size_t proc =
                1 + (phase * stride + k) % std::max<std::size_t>(
                        callable, 1);
            body->stmts.push_back(callOf(proc));
            body->stmts.push_back(compute(_rng.nextRange(1, 6)));
        }
        double mean = std::max(2.0,
                               static_cast<double>(_p.phase_iterations));
        phases->stmts.push_back(
            loopOf(mean, 4 * _p.phase_iterations, std::move(body)));
    }

    // An effectively infinite outer loop: runs are always bounded by
    // the executor's instruction budget, mirroring the paper's
    // "first 500 million instructions" rule.
    return loopOf(1e9, 1'000'000'000u, std::move(phases));
}

GeneratedProgram
GeneratorImpl::generate()
{
    std::size_t n = _p.num_procedures;
    _proc_costs.assign(n, 0.0);
    std::vector<StmtPtr> bodies(n);

    // Procedures are generated callee-first (calls only reach higher
    // indices) so that expected costs are known when calibrating each
    // caller's loop trip counts against the target call cost.
    for (std::size_t i = n - 1; i >= 1; --i) {
        std::size_t budget = _p.branches_per_proc_min;
        if (_p.branches_per_proc_max > _p.branches_per_proc_min)
            budget += _rng.nextBounded(static_cast<std::uint32_t>(
                _p.branches_per_proc_max - _p.branches_per_proc_min +
                1));

        _trip_multiplier = 1.0;
        StmtPtr body;
        double cost = 0.0;
        for (int attempt = 0; attempt < 5; ++attempt) {
            _calls_in_proc = 0;
            body = genBody(budget, 0, i);
            cost = expectedCost(*body, _proc_costs);
            if (cost <= 1.6 * _p.target_call_cost)
                break;
            // Damp trips toward the target and regenerate.
            _trip_multiplier = std::max(
                0.05, _trip_multiplier * _p.target_call_cost / cost);
        }
        bodies[i] = std::move(body);
        _proc_costs[i] = cost;
    }
    _trip_multiplier = 1.0;

    StmtPtr main_body = genMain();
    // One pass = one iteration of the effectively infinite outer
    // loop, i.e. the expected cost of its phase-sequence body.
    double pass_cost =
        expectedCost(*main_body->body, _proc_costs) + 1.0;

    Program program;
    program.addProcedure("main", std::move(main_body));
    for (std::size_t i = 1; i < n; ++i)
        program.addProcedure(
            std::string("proc").append(std::to_string(i)),
            std::move(bodies[i]));
    program.finalize();

    GeneratedProgram out;
    out.program = std::move(program);
    out.expected_pass_instructions =
        static_cast<std::uint64_t>(pass_cost);
    return out;
}

} // namespace

GeneratedProgram
generateProgramWithInfo(const WorkloadParams &params)
{
    if (params.num_procedures < 2)
        bwsa_fatal("workload '", params.name,
                   "' needs at least 2 procedures");
    if (params.num_phases < 1)
        bwsa_fatal("workload '", params.name, "' needs at least 1 phase");
    if (params.procs_per_phase < 1)
        bwsa_fatal("workload '", params.name,
                   "' needs at least 1 procedure per phase");
    if (params.target_call_cost < 1.0)
        bwsa_fatal("workload '", params.name,
                   "' target_call_cost must be >= 1");
    GeneratorImpl impl(params);
    return impl.generate();
}

Program
generateProgram(const WorkloadParams &params)
{
    return generateProgramWithInfo(params).program;
}

} // namespace bwsa
