/**
 * @file
 * Run-report inspection tool for the per-branch telemetry section.
 *
 * Commands:
 *   report_tool explain <report.json> [--top=N] [--scope=<name>]
 *       Ranked per-branch breakdown of every telemetry scope in the
 *       report (schema v3 "branches" section): the N branches with
 *       the most baseline mispredictions, with their predictability
 *       (taken rate, entropy), lifetime residency and destructive-
 *       aliasing victim counts.  Exits 1 when the report carries no
 *       telemetry (pre-v3 report, or a run without
 *       --branch-telemetry).
 *
 *   report_tool diff <a.json> <b.json> [--top=N] [--scope=<name>]
 *       Per-branch misprediction delta between two telemetry-carrying
 *       reports of the same experiment: matches branches by
 *       (scope, pc) and prints the N largest baseline-misprediction
 *       movers, plus branches present on only one side.  Reports with
 *       different schema versions (e.g. a v3 baseline against a v4
 *       run) diff fine over the sections both carry; the mismatch is
 *       a stderr warning, not an error.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "report/table.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace
{

using namespace bwsa;

[[noreturn]] void
usage()
{
    std::cerr << "usage: report_tool explain <report.json> [--top=N]"
                 " [--scope=<name>]\n"
              << "       report_tool diff <a.json> <b.json> [--top=N]"
                 " [--scope=<name>]\n";
    std::exit(1);
}

obs::JsonValue
loadReport(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        bwsa_fatal("cannot open report: ", path);
    std::ostringstream text;
    text << in.rdbuf();
    obs::JsonValue doc;
    std::string error;
    if (!obs::JsonValue::parse(text.str(), doc, &error))
        bwsa_fatal("cannot parse ", path, ": ", error);
    return doc;
}

std::string
pcHex(std::uint64_t pc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

/** One branch entry of a telemetry scope, decoded for ranking. */
struct Branch
{
    std::uint64_t pc = 0;
    std::uint64_t executed = 0;
    std::uint64_t base_miss = 0; ///< first predictor's mispredicts
    bool profiled = false;
    double taken_rate = 0.0;
    double transition_rate = 0.0;
    double entropy = 0.0;
    double residency = 0.0;
    std::uint64_t victim = 0; ///< first probed predictor's victims
};

/** One telemetry scope of a report, decoded. */
struct Scope
{
    std::string name;
    std::string base_predictor; ///< first name in totals.mispredicts
    std::uint64_t sim_branches = 0;
    std::uint64_t profiled_branches = 0;
    std::vector<Branch> branches;
};

double
numberField(const obs::JsonValue &object, const std::string &key)
{
    const obs::JsonValue *v = object.find(key);
    return v ? v->asNumber() : 0.0;
}

std::uint64_t
countField(const obs::JsonValue &object, const std::string &key)
{
    const obs::JsonValue *v = object.find(key);
    return v ? v->asCount() : 0;
}

Branch
decodeBranch(const obs::JsonValue &entry)
{
    Branch b;
    b.pc = countField(entry, "pc");
    b.executed = countField(entry, "sim_executed");
    if (const obs::JsonValue *miss = entry.find("mispredicts"))
        if (!miss->members().empty())
            b.base_miss = miss->members().front().second.asCount();
    if (const obs::JsonValue *aliasing = entry.find("aliasing"))
        if (!aliasing->members().empty())
            b.victim = countField(
                aliasing->members().front().second, "victim");
    if (const obs::JsonValue *profiled = entry.find("profiled"))
        b.profiled = profiled->asBool();
    b.taken_rate = numberField(entry, "taken_rate");
    b.transition_rate = numberField(entry, "transition_rate");
    b.entropy = numberField(entry, "entropy_bits");
    b.residency = numberField(entry, "residency");
    return b;
}

/**
 * Decode the report's telemetry scopes, name-ascending (the report
 * stores them in sweep completion order, which is not deterministic
 * across thread counts).  @p only filters to one scope when nonempty.
 */
std::vector<Scope>
decodeScopes(const obs::JsonValue &doc, const std::string &only)
{
    std::vector<Scope> scopes;
    const obs::JsonValue *section = doc.find("branches");
    if (!section || !section->isArray())
        return scopes;
    for (std::size_t i = 0; i < section->size(); ++i) {
        const obs::JsonValue &entry = section->at(i);
        Scope scope;
        if (const obs::JsonValue *name = entry.find("scope"))
            scope.name = name->asString();
        if (!only.empty() && scope.name != only)
            continue;
        scope.profiled_branches =
            countField(entry, "profiled_branches");
        if (const obs::JsonValue *totals = entry.find("totals")) {
            scope.sim_branches = countField(*totals, "sim_branches");
            if (const obs::JsonValue *miss =
                    totals->find("mispredicts"))
                if (!miss->members().empty())
                    scope.base_predictor =
                        miss->members().front().first;
        }
        if (const obs::JsonValue *branches = entry.find("branches"))
            for (std::size_t j = 0; j < branches->size(); ++j)
                scope.branches.push_back(
                    decodeBranch(branches->at(j)));
        scopes.push_back(std::move(scope));
    }
    std::sort(scopes.begin(), scopes.end(),
              [](const Scope &a, const Scope &b) {
                  return a.name < b.name;
              });
    return scopes;
}

double
percent(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

int
runExplain(const CliOptions &options, const std::string &path)
{
    obs::JsonValue doc = loadReport(path);
    std::size_t top = options.getUint("top", 16);
    std::vector<Scope> scopes =
        decodeScopes(doc, options.getRequiredString("scope", ""));
    if (scopes.empty()) {
        std::cerr << "report has no per-branch telemetry (run with "
                     "--branch-telemetry on a schema v3 build)\n";
        return 1;
    }

    for (const Scope &scope : scopes) {
        std::vector<Branch> ranked = scope.branches;
        std::sort(ranked.begin(), ranked.end(),
                  [](const Branch &a, const Branch &b) {
                      if (a.base_miss != b.base_miss)
                          return a.base_miss > b.base_miss;
                      return a.pc < b.pc;
                  });
        if (ranked.size() > top)
            ranked.resize(top);

        std::cout << "scope " << scope.name << ": "
                  << withCommas(scope.branches.size())
                  << " static branches ("
                  << withCommas(scope.profiled_branches)
                  << " profiled), "
                  << withCommas(scope.sim_branches)
                  << " dynamic, ranked by " << scope.base_predictor
                  << " mispredictions\n";

        TextTable table({"branch", "executed", "mispredicts",
                         "miss %", "taken %", "entropy", "residency",
                         "victim"});
        for (const Branch &b : ranked)
            table.addRow(
                {pcHex(b.pc), withCommas(b.executed),
                 withCommas(b.base_miss),
                 fixedString(percent(b.base_miss, b.executed), 3),
                 b.profiled ? fixedString(100.0 * b.taken_rate, 1)
                            : "-",
                 b.profiled ? fixedString(b.entropy, 3) : "-",
                 b.profiled ? fixedString(b.residency, 3) : "-",
                 withCommas(b.victim)});
        std::cout << table.render() << "\n";
    }
    return 0;
}

int
runDiff(const CliOptions &options, const std::string &path_a,
        const std::string &path_b)
{
    obs::JsonValue doc_a = loadReport(path_a);
    obs::JsonValue doc_b = loadReport(path_b);

    // Reports from different tool generations still share the
    // sections this diff reads; warn instead of refusing, so a v3
    // baseline stays comparable against a v4 run.
    const obs::JsonValue *schema_a = doc_a.find("schema");
    const obs::JsonValue *schema_b = doc_b.find("schema");
    const std::string name_a =
        schema_a ? schema_a->asString() : "(no schema field)";
    const std::string name_b =
        schema_b ? schema_b->asString() : "(no schema field)";
    if (name_a != name_b)
        std::cerr << "warning: schema mismatch: " << path_a << " is "
                  << name_a << ", " << path_b << " is " << name_b
                  << "; diffing the sections both share\n";

    std::size_t top = options.getUint("top", 16);
    std::string only = options.getRequiredString("scope", "");
    std::vector<Scope> scopes_a = decodeScopes(doc_a, only);
    std::vector<Scope> scopes_b = decodeScopes(doc_b, only);
    if (scopes_a.empty() || scopes_b.empty()) {
        std::cerr << "both reports need per-branch telemetry (run "
                     "with --branch-telemetry on schema v3 builds)\n";
        return 1;
    }

    for (const Scope &a : scopes_a) {
        const Scope *b = nullptr;
        for (const Scope &candidate : scopes_b)
            if (candidate.name == a.name)
                b = &candidate;
        if (!b) {
            std::cout << "scope " << a.name << ": only in " << path_a
                      << "\n";
            continue;
        }

        struct Mover
        {
            std::uint64_t pc;
            std::int64_t delta; ///< b mispredicts - a mispredicts
            std::uint64_t miss_a, miss_b;
            std::uint64_t exec_a, exec_b;
        };
        std::vector<Mover> movers;
        std::size_t only_a = 0, only_b = 0;
        std::uint64_t total_a = 0, total_b = 0;

        std::vector<const Branch *> sorted_b;
        for (const Branch &branch : b->branches)
            sorted_b.push_back(&branch);
        auto find_b = [&](std::uint64_t pc) -> const Branch * {
            for (const Branch *candidate : sorted_b)
                if (candidate->pc == pc)
                    return candidate;
            return nullptr;
        };

        for (const Branch &branch : a.branches) {
            total_a += branch.base_miss;
            const Branch *other = find_b(branch.pc);
            if (!other) {
                ++only_a;
                continue;
            }
            movers.push_back(
                {branch.pc,
                 static_cast<std::int64_t>(other->base_miss) -
                     static_cast<std::int64_t>(branch.base_miss),
                 branch.base_miss, other->base_miss, branch.executed,
                 other->executed});
        }
        for (const Branch &branch : b->branches) {
            total_b += branch.base_miss;
            bool found = false;
            for (const Branch &mine : a.branches)
                if (mine.pc == branch.pc)
                    found = true;
            if (!found)
                ++only_b;
        }

        std::sort(movers.begin(), movers.end(),
                  [](const Mover &x, const Mover &y) {
                      std::int64_t ax = std::abs(x.delta);
                      std::int64_t ay = std::abs(y.delta);
                      if (ax != ay)
                          return ax > ay;
                      return x.pc < y.pc;
                  });
        if (movers.size() > top)
            movers.resize(top);

        std::cout << "scope " << a.name << " ("
                  << a.base_predictor << "): "
                  << withCommas(total_a) << " -> "
                  << withCommas(total_b) << " mispredictions ("
                  << (total_b >= total_a ? "+" : "-")
                  << withCommas(total_b >= total_a
                                    ? total_b - total_a
                                    : total_a - total_b)
                  << "), " << only_a << " branches only in a, "
                  << only_b << " only in b\n";

        TextTable table({"branch", "miss a", "miss b", "delta",
                         "executed a", "executed b"});
        for (const Mover &m : movers) {
            std::string delta = m.delta >= 0 ? "+" : "-";
            delta += withCommas(
                static_cast<std::uint64_t>(std::abs(m.delta)));
            table.addRow({pcHex(m.pc), withCommas(m.miss_a),
                          withCommas(m.miss_b), delta,
                          withCommas(m.exec_a),
                          withCommas(m.exec_b)});
        }
        std::cout << table.render() << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options = CliOptions::parse(
        argc, argv, {"top", "scope", "quiet", "verbose"});
    applyLogLevelOptions(options);
    for (const std::string &flag :
         CliOptions::unknownFlags(argc, argv))
        bwsa_fatal("unknown option ", flag);

    if (argc < 2)
        usage();
    std::string command = argv[1];
    if (command == "explain" && argc >= 3)
        return runExplain(options, argv[2]);
    if (command == "diff" && argc >= 4)
        return runDiff(options, argv[2], argv[3]);
    std::cerr << "unknown or incomplete command: " << command << "\n";
    usage();
}
