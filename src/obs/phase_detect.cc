#include "obs/phase_detect.hh"

#include "util/logging.hh"

namespace bwsa::obs
{

PhaseAccumulator::PhaseAccumulator(std::uint64_t interval)
    : _interval(interval)
{
    if (interval == 0)
        bwsa_panic("PhaseAccumulator interval must be >= 1");
}

double
jaccard(const std::unordered_set<std::uint64_t> &a,
        const std::unordered_set<std::uint64_t> &b)
{
    const auto &needle = a.size() <= b.size() ? a : b;
    const auto &hay = a.size() <= b.size() ? b : a;
    std::size_t inter = 0;
    for (std::uint64_t key : needle)
        inter += (hay.count(key) != 0);
    std::size_t uni = a.size() + b.size() - inter;
    return uni ? static_cast<double>(inter) /
                     static_cast<double>(uni)
               : 1.0;
}

void
PhaseAccumulator::sample(std::uint64_t pc, std::uint64_t timestamp)
{
    if (_finished)
        bwsa_panic("PhaseAccumulator::sample after finish");
    const std::uint64_t start = (timestamp / _interval) * _interval;
    if (_any && start != _open_start)
        closeOpenWindow();
    _open_start = start;
    _any = true;
    ++_open_samples;
    _open_keys.insert(pc);
    ++_total_samples;
}

void
PhaseAccumulator::pushStat(const PhaseWindowStat &stat,
                           const KeySet &keys)
{
    _windows.push_back(stat);
    // Retain the raw populations a future mergeAppend() into a
    // predecessor would need to recompute this window's similarity.
    if (_windows.size() == 1)
        _first_keys = keys;
    else if (_windows.size() == 2)
        _second_keys = keys;
}

void
PhaseAccumulator::closeOpenWindow()
{
    PhaseWindowStat stat;
    stat.start = _open_start;
    stat.distinct = _open_keys.size();
    stat.samples = _open_samples;
    stat.has_similarity = !_windows.empty();
    if (stat.has_similarity)
        stat.similarity = jaccard(_open_keys, _prev_keys);
    pushStat(stat, _open_keys);
    _prev_keys = std::move(_open_keys);
    _open_keys.clear();
    _open_samples = 0;
    _any = false;
}

void
PhaseAccumulator::finish()
{
    if (!_finished && _any)
        closeOpenWindow();
    _finished = true;
}

void
PhaseAccumulator::mergeAppend(const PhaseAccumulator &next)
{
    if (_finished || next.finished())
        bwsa_panic("PhaseAccumulator::mergeAppend after finish");
    if (_interval != next._interval)
        bwsa_panic("PhaseAccumulator::mergeAppend interval mismatch (",
                   _interval, " vs ", next._interval, ")");
    if (next._total_samples == 0)
        return;
    if (_total_samples == 0) {
        *this = next;
        return;
    }

    const std::uint64_t next_start = next._windows.empty()
                                         ? next._open_start
                                         : next._windows[0].start;
    if (next_start < _open_start)
        bwsa_panic("PhaseAccumulator::mergeAppend segments out of "
                   "order (", next_start, " < ", _open_start, ")");

    if (next._windows.empty()) {
        // The whole appended segment fits in one still-open window.
        if (next._open_start == _open_start) {
            _open_keys.insert(next._open_keys.begin(),
                              next._open_keys.end());
            _open_samples += next._open_samples;
        } else {
            closeOpenWindow();
            _open_start = next._open_start;
            _open_samples = next._open_samples;
            _open_keys = next._open_keys;
            _any = true;
        }
        _total_samples += next._total_samples;
        return;
    }

    std::size_t copy_from = 0;
    if (next._windows[0].start == _open_start) {
        // The segment boundary split this window: union the halves
        // and recompute its stats against our last closed window.
        KeySet merged = _open_keys;
        merged.insert(next._first_keys.begin(),
                      next._first_keys.end());
        PhaseWindowStat stat = next._windows[0];
        stat.distinct = merged.size();
        stat.samples += _open_samples;
        stat.has_similarity = !_windows.empty();
        stat.similarity =
            stat.has_similarity ? jaccard(merged, _prev_keys) : 1.0;
        pushStat(stat, merged);
        copy_from = 1;
        if (next._windows.size() >= 2) {
            // The merged population also feeds the similarity of the
            // segment's second window; later windows are untouched.
            PhaseWindowStat second = next._windows[1];
            second.has_similarity = true;
            second.similarity = jaccard(next._second_keys, merged);
            pushStat(second, next._second_keys);
            copy_from = 2;
            _prev_keys = next._windows.size() == 2
                             ? next._second_keys
                             : next._prev_keys;
        } else {
            _prev_keys = std::move(merged);
        }
    } else {
        closeOpenWindow();
        // The segment's first window could not see its predecessor
        // (our final window); repair its similarity.
        PhaseWindowStat stat = next._windows[0];
        stat.has_similarity = true;
        stat.similarity = jaccard(next._first_keys, _prev_keys);
        pushStat(stat, next._first_keys);
        copy_from = 1;
        _prev_keys = next._windows.size() == 1 ? next._first_keys
                                               : next._prev_keys;
    }

    // Windows past the repaired head append verbatim: by the time the
    // loop runs, at least two windows precede each of them, so
    // pushStat() never needs their raw populations.
    static const KeySet no_keys;
    for (std::size_t i = copy_from; i < next._windows.size(); ++i)
        pushStat(next._windows[i], no_keys);

    _open_start = next._open_start;
    _open_samples = next._open_samples;
    _open_keys = next._open_keys;
    _any = next._any;
    _total_samples += next._total_samples;
}

PhaseDetector::PhaseDetector(std::uint64_t interval,
                             const PhaseDetectorConfig &config)
    : _interval(interval), _config(config)
{
    if (interval == 0)
        bwsa_panic("PhaseDetector interval must be >= 1");
    if (_config.min_windows == 0)
        _config.min_windows = 1;
}

bool
PhaseDetector::observe(const PhaseWindowStat &stat)
{
    bool boundary = false;
    if (_observed == 0) {
        Phase phase;
        phase.first_window = 0;
        phase.window_count = 1;
        phase.start_ts = stat.start;
        phase.end_ts = stat.start + _interval;
        _phases.push_back(phase);
    } else {
        Phase &current = _phases.back();
        const bool fire = _armed && stat.has_similarity &&
                          stat.similarity < _config.threshold &&
                          current.window_count >= _config.min_windows;
        if (fire) {
            Phase phase;
            phase.first_window = _observed;
            phase.window_count = 1;
            phase.start_ts = stat.start;
            phase.end_ts = stat.start + _interval;
            phase.boundary_similarity = stat.similarity;
            _phases.push_back(phase);
            _armed = false;
            boundary = true;
        } else {
            ++current.window_count;
            current.end_ts = stat.start + _interval;
        }
        if (!_armed && stat.has_similarity &&
            stat.similarity >= _config.threshold + _config.hysteresis)
            _armed = true;
    }
    ++_observed;
    return boundary;
}

std::size_t
PhaseDetector::observeNew(const PhaseAccumulator &accumulator)
{
    if (accumulator.interval() != _interval)
        bwsa_panic("PhaseDetector::observeNew interval mismatch (",
                   accumulator.interval(), " vs ", _interval, ")");
    const std::vector<PhaseWindowStat> &windows = accumulator.windows();
    std::size_t opened = 0;
    while (_observed < windows.size())
        opened += observe(windows[_observed]);
    return opened;
}

PhaseTimeline
PhaseDetector::timeline() const
{
    PhaseTimeline out;
    out.interval = _interval;
    out.config = _config;
    out.phases = _phases;
    return out;
}

PhaseTimeline
detectPhases(const PhaseAccumulator &accumulator,
             const PhaseDetectorConfig &config)
{
    PhaseDetector detector(accumulator.interval(), config);
    detector.observeNew(accumulator);
    return detector.timeline();
}

} // namespace bwsa::obs
