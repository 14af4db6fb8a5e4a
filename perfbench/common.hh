/**
 * @file
 * Shared plumbing of the perfbench workloads: the clock, per-layer
 * span accumulation, seed derivation, digests, and the interface every
 * workload implements.
 *
 * The benchmark times the library strictly from outside: a span wraps
 * one public call, and its duration is added to the layer metric named
 * after the call's layer ("profile.interleave_s").  Nothing inside
 * src/ is instrumented for it.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hh"

namespace perfbench
{

namespace obs = bwsa::obs;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Per-layer sums: seconds for "_s" names, plain counts otherwise. */
using LayerSums = std::map<std::string, double>;

/**
 * Adds the lifetime of the scope to one layer sum.  A null @p sums
 * (untraced pass) makes the span a no-op, so untraced runs pay
 * nothing for it.
 */
class Span
{
  public:
    Span(LayerSums *sums, const char *name)
        : _sums(sums), _name(name)
    {
        if (_sums)
            _start = Clock::now();
    }

    ~Span()
    {
        if (_sums)
            (*_sums)[_name] += secondsSince(_start);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    LayerSums *_sums;
    const char *_name;
    Clock::time_point _start;
};

/** Add @p value to a layer sum when tracing. */
inline void
addCount(LayerSums *sums, const char *name, double value)
{
    if (sums)
        (*sums)[name] += value;
}

/**
 * Input seed of workload trace @p index under benchmark seed @p seed
 * (splitmix64 finaliser, so neighbouring seeds give unrelated inputs).
 */
inline std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** 64-bit FNV-1a of @p bytes, as 16 hex digits. */
std::string digestHex(std::string_view bytes);

/** @p values as a JSON array. */
obs::JsonValue jsonArray(const std::vector<double> &values);

/** Pass/fail tally of the workload's output checks. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; false results count as failed. */
    void
    record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/**
 * Deterministic output of one operation (a table row plus a graph
 * digest), compared against the committed expectation for the default
 * seed and against the run's first pass for every seed.
 */
class OutputLog
{
  public:
    /** Expected outputs keyed by cell; empty = no expectation. */
    explicit OutputLog(obs::JsonValue expected = {})
        : _expected(std::move(expected))
    {}

    /** True when @p value matches everything known for @p cell. */
    bool check(const std::string &cell, const std::string &value);

    /** The first pass's outputs (what --record-expected saves). */
    const obs::JsonValue &first() const { return _first; }

  private:
    obs::JsonValue _expected;
    obs::JsonValue _first = obs::JsonValue::object();
};

/** Where a workload keeps its generated inputs. */
struct WorkloadEnv
{
    std::uint64_t seed = 1;
    std::string work_dir;   ///< scratch directory for containers
    obs::JsonValue expected; ///< committed outputs, or null
};

/**
 * One benchmark workload.  setup() builds the inputs and oracles from
 * the seed and may run several times; runPass() runs the timed region
 * once and checks its outputs afterwards.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs and oracles; @p sums receives setup layers. */
    virtual void setup(LayerSums *sums) = 0;

    /**
     * Run the timed region once (spans into @p sums when traced) and
     * check its outputs.
     *
     * @return wall seconds of the timed region alone
     */
    virtual double runPass(LayerSums *sums) = 0;

    /** False while the run lacks the samples its quantiles need. */
    virtual bool enoughSamples() const { return true; }

    /**
     * Post-run work outside the timed region: the alloc-1024 miss
     * rate and workload-specific raw data go into @p raw.
     */
    virtual void report(obs::JsonValue &raw) = 0;

    Checks checks;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
