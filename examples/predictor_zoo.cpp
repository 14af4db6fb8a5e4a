/**
 * @file
 * Head-to-head comparison of every predictor family in the library
 * over one benchmark's trace -- the quickest way to see where the
 * paper's PAg baseline sits relative to its contemporaries (bimodal,
 * GAg, gshare, PAs, tournament, static schemes) and how far branch
 * allocation moves it.
 *
 * Usage:
 *   ./predictor_zoo [--preset=li] [--scale=0.5]
 *                   [--extra=<spec>]
 *
 * --extra adds one custom contender described in the PredictorSpec
 * string grammar (see src/predict/factory.hh), e.g.
 * --extra=gshare:hist=16 or --extra=pas:bht=512,sets=8.
 */

#include <cstdio>

#include "core/pipeline.hh"
#include "report/table.hh"
#include "sim/batched_replay.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "workload/presets.hh"

using namespace bwsa;

int
main(int argc, char **argv)
{
    CliOptions cli = CliOptions::parse(
        argc, argv, {"preset", "scale", "extra", "quiet", "verbose"});
    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv);
    if (!unknown.empty())
        bwsa_fatal("unknown option '", unknown[0],
                   "' (supported: --preset --scale --extra --quiet "
                   "--verbose)");
    applyLogLevelOptions(cli);
    std::string preset = cli.getString("preset", "li");
    double scale = cli.getDouble("scale", 0.5);
    std::string extra = cli.getString("extra", "");

    Workload w = makeWorkload(preset, "", scale);
    WorkloadTraceSource source = w.source();

    // Profile once for the allocated PAg and the profile-static
    // scheme.
    PipelineConfig config;
    config.allocation.use_classification = true;
    AllocationPipeline pipeline(config);
    {
        ProfileSession session(pipeline);
        session.addStats(source);
        session.commit();
        session.addInterleave(source);
        session.finish();
    }

    PredictorSpec profile_static;
    profile_static.kind = PredictorKind::ProfileStatic;
    for (const ConflictNode &node : pipeline.graph().nodes())
        profile_static.static_directions[node.pc] =
            node.takenRate() >= 0.5;

    std::vector<PredictorSpec> specs(1);
    specs[0].kind = PredictorKind::AlwaysTaken;
    specs.push_back(std::move(profile_static));
    for (PredictorKind kind :
         {PredictorKind::Bimodal, PredictorKind::GAg,
          PredictorKind::Gshare, PredictorKind::PAs,
          PredictorKind::PAgModulo, PredictorKind::Tournament}) {
        specs.emplace_back();
        specs.back().kind = kind;
    }
    specs.push_back(pipeline.predictorSpec(1024));
    specs.push_back(interferenceFreeSpec());
    if (!extra.empty())
        specs.push_back(parsePredictorSpec(extra));

    std::vector<PredictionStats> results = replayBatched(source, specs);

    TextTable table({"predictor", "mispredict %", "accuracy %"});
    for (const PredictionStats &r : results)
        table.addRow({r.predictor_name,
                      fixedString(r.mispredictPercent(), 3),
                      fixedString(r.accuracyPercent(), 3)});

    std::printf("predictor comparison on %s (%s dynamic "
                "branches):\n\n%s",
                preset.c_str(),
                withCommas(results[0].mispredicts.total()).c_str(),
                table.render().c_str());
    return 0;
}
