/**
 * @file
 * Bounded time-series sampling keyed on retired-instruction count.
 *
 * The run reports of the observability layer expose end-of-run
 * aggregates only, but the paper's whole argument is temporal:
 * working sets drift over the trace and mispredictions cluster around
 * the drift.  A TimeSeries turns any per-record signal into a bounded
 * sequence of fixed-width windows over the trace's retired-instruction
 * timestamp: samples accumulate into the window their timestamp falls
 * in, and when the series would exceed its point budget, adjacent
 * window pairs merge (the window width doubles), so an 8M-instruction
 * trace costs O(max_points) memory however long it runs.
 *
 * Each window keeps mergeable aggregates -- weight (samples or
 * denominator events), sum, min and max of the window means -- so a
 * series can carry either plain samples (working-set size per window:
 * record(ts, size)) or a ratio signal (windowed misprediction rate:
 * record(ts, miss ? 1 : 0) per branch; the window mean is the rate).
 *
 * Series live in a TimeSeriesRegistry.  Creation takes a mutex;
 * recording is unsynchronized and follows a single-writer contract:
 * each series has exactly one writer at a time (sweep cells and
 * profile shards each publish into their own series).  The registry is
 * disabled by default; a disabled registry hands out no series, so
 * instrumented components pay one null-pointer test per record.
 */

#ifndef BWSA_OBS_TIMESERIES_HH
#define BWSA_OBS_TIMESERIES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace bwsa::obs
{

/** One fixed-width window of a series. */
struct SeriesPoint
{
    std::uint64_t start = 0;  ///< window start timestamp
    std::uint64_t weight = 0; ///< samples (or denominator events)
    double sum = 0.0;         ///< weighted sum of sample values
    double min = 0.0;         ///< smallest sample in the window
    double max = 0.0;         ///< largest sample in the window

    /** Window mean (the rate, for 0/1 ratio samples); 0 when empty. */
    double
    mean() const
    {
        return weight ? sum / static_cast<double>(weight) : 0.0;
    }
};

/**
 * One named bounded series of fixed-width windows.
 */
class TimeSeries
{
  public:
    /**
     * @param name       series name (unique within its registry)
     * @param width      initial window width, in timestamp units
     *                   (retired instructions); grows by doubling
     * @param max_points window budget; reaching it merges adjacent
     *                   window pairs (must be >= 2)
     */
    TimeSeries(std::string name, std::uint64_t width,
               std::size_t max_points);

    /**
     * Accumulate one sample at @p timestamp.  Timestamps may arrive
     * in any order (windows are addressed, not appended), but a
     * single series must only ever have one writer at a time.
     */
    void record(std::uint64_t timestamp, double value);

    const std::string &name() const { return _name; }

    /** Current window width (initial width * 2^downsamples). */
    std::uint64_t windowWidth() const { return _width; }

    /** Number of pair-merge passes performed so far. */
    unsigned downsamples() const { return _downsamples; }

    /** Total samples recorded (sum of window weights). */
    std::uint64_t totalWeight() const { return _total_weight; }

    /** Windows, in timestamp order; empty windows are omitted. */
    const std::vector<SeriesPoint> &points() const { return _points; }

    /**
     * Serialize: {"name", "window", "downsamples", "points": [
     * [start, weight, mean, min, max], ... ]} -- points as compact
     * arrays because fig sweeps carry dozens of series.
     */
    JsonValue toJson() const;

  private:
    void downsample();

    std::string _name;
    std::uint64_t _width;
    std::size_t _max_points;
    unsigned _downsamples = 0;
    std::uint64_t _total_weight = 0;
    /** Window index -> point; sparse (empty windows absent). */
    std::vector<SeriesPoint> _points;
};

/**
 * Registry of named time series.
 *
 * Disabled (the default) it creates nothing and series() returns
 * nullptr, so callers keep their instrumentation unconditionally and
 * pay one branch when sampling is off.
 */
class TimeSeriesRegistry
{
  public:
    TimeSeriesRegistry() = default;

    TimeSeriesRegistry(const TimeSeriesRegistry &) = delete;
    TimeSeriesRegistry &operator=(const TimeSeriesRegistry &) = delete;

    /** Process-wide registry used by the built-in instrumentation. */
    static TimeSeriesRegistry &global();

    /** Turn sampling on or off (series survive a disable). */
    void setEnabled(bool enabled);

    bool
    enabled() const
    {
        return _enabled;
    }

    /**
     * Default window width and point budget handed to new series
     * (the bench harnesses set these from --interval).
     */
    void configureDefaults(std::uint64_t width,
                           std::size_t max_points = 512);

    /** Default window width new series start from. */
    std::uint64_t defaultWidth() const;

    /**
     * Get or create the series @p name with the default geometry.
     * Returns nullptr while the registry is disabled.  The pointer
     * stays valid until clear().
     */
    TimeSeries *series(const std::string &name);

    /** Lookup without creating; nullptr when absent. */
    const TimeSeries *find(const std::string &name) const;

    /** Number of series created so far. */
    std::size_t seriesCount() const;

    /** Drop every series (and keep the enabled flag as-is). */
    void clear();

    /**
     * All series as a JSON array, sorted by name: sweep workers
     * register series in racing order, so creation order would not
     * repeat from run to run.
     */
    JsonValue toJson() const;

    /**
     * Chrome trace_event counter events ("ph":"C") for every series
     * in name order, one event per window carrying the window mean,
     * so the series render as counter tracks in chrome://tracing /
     * Perfetto.  Timestamps are retired instructions re-interpreted as
     * microseconds (the trace has no wall-clock axis for them).
     */
    JsonValue chromeCounterEvents() const;

  private:
    mutable std::mutex _mutex;
    bool _enabled = false;
    std::uint64_t _default_width = 65536;
    std::size_t _default_max_points = 512;
    std::vector<std::unique_ptr<TimeSeries>> _series;
    /** Name -> index into _series; ordered, so output is by name. */
    std::map<std::string, std::size_t> _index;
};

} // namespace bwsa::obs

#endif // BWSA_OBS_TIMESERIES_HH
