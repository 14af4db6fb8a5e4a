/**
 * @file
 * The online profiling daemon.
 *
 * Serves the streaming ProfileSession API (serve/service.hh) to any
 * number of clients over a unix-domain socket or stdio:
 *
 *   bwsa_serve --socket=/tmp/bwsa.sock [--threads=N]
 *              [--max-session-bytes=N --store-dir=DIR]
 *              [--max-window=N] [--quiet|--verbose]
 *              [--phase-threshold=X --phase-hysteresis=X
 *               --phase-min-windows=N]
 *   bwsa_serve --stdio [...]
 *
 * Each connection is one tenant; its sessions are isolated from every
 * other client's and reclaimed when the connection drops.  With
 * --max-session-bytes, sessions that outgrow the bound spill graph
 * epochs into the artifact cache at --store-dir (--store-cap-mb caps
 * its LRU footprint; a session that lost an epoch to eviction gets an
 * Internal error on Snapshot/Finish, and the daemon keeps serving
 * every other session).  Sessions that opt into phase detection (a
 * nonzero phase interval in their Begin frame) get live PhaseEvent
 * frames pushed at every detected boundary; the --phase-* flags tune
 * the daemon-wide detector.  The daemon stops when a client sends a
 * Shutdown frame (or, under --stdio, at EOF).
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.hh"
#include "serve/service.hh"
#include "store/artifact_cache.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace
{

using namespace bwsa;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: bwsa_serve (--socket=PATH | --stdio)\n"
           "                  [--threads=N] [--max-window=N]\n"
           "                  [--max-session-bytes=N --store-dir=DIR"
           " [--store-cap-mb=N]]\n"
           "                  [--phase-threshold=X"
           " --phase-hysteresis=X --phase-min-windows=N]\n"
           "                  [--quiet | --verbose]\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options = CliOptions::parse(
        argc, argv,
        {"socket", "stdio", "threads", "max-window",
         "max-session-bytes", "store-dir", "store-cap-mb",
         "phase-threshold", "phase-hysteresis", "phase-min-windows",
         "quiet", "verbose", "help"});
    if (options.has("help"))
        usage();
    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv);
    if (!unknown.empty())
        bwsa_fatal("unknown flag ", unknown.front(),
                   " (see --help)");
    applyLogLevelOptions(options);

    const bool stdio = options.getBool("stdio", false);
    const std::string socket_path =
        options.getRequiredString("socket", "");
    if (stdio == !socket_path.empty())
        usage();

    serve::ServiceConfig service_config;
    service_config.max_session_bytes =
        options.getUint("max-session-bytes", 0);
    std::uint64_t max_window = options.getUint("max-window", 0);
    if (max_window != 0)
        service_config.max_window =
            static_cast<std::size_t>(max_window);
    service_config.phase_config.threshold =
        options.getDouble("phase-threshold", 0.4);
    service_config.phase_config.hysteresis =
        options.getDouble("phase-hysteresis", 0.2);
    service_config.phase_config.min_windows =
        options.getUint("phase-min-windows", 4);

    std::unique_ptr<store::ArtifactCache> cache;
    if (service_config.max_session_bytes != 0) {
        std::string dir = options.getRequiredString("store-dir", "");
        if (dir.empty())
            bwsa_fatal("--max-session-bytes needs --store-dir for "
                       "the spill cache");
        cache = std::make_unique<store::ArtifactCache>(
            dir, options.getUint("store-cap-mb", 256) * 1024 * 1024);
        service_config.spill_cache = cache.get();
    }

    serve::ProfileService service(std::move(service_config));

    if (stdio)
        return serve::serveStdio(service) ? 0 : 1;

    serve::ServerConfig server_config;
    server_config.socket_path = socket_path;
    server_config.threads = static_cast<unsigned>(
        options.getUint("threads", 0));
    serve::serveUnixSocket(service, server_config);
    return 0;
}
