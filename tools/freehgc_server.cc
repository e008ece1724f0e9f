// freehgc_server: long-lived condensation service on 127.0.0.1.
//
//   freehgc_server [--port=0] [--port-file=PATH] [--slots=2]
//                  [--queue-capacity=32] [--threads-per-slot=0]
//                  [--max-concurrent=0] [--aging-quantum-ms=250]
//                  [--slo-ms=0] [--no-coalesce]
//                  [--spool-dir=PATH] [--map=NAME=PATH]...
//                  [--access-log=PATH] [--spill-dir=PATH]
//                  [--artifact-budget=BYTES] [--resident-budget=BYTES]
//                  [--meta=HOST:PORT --shard-id=N [--heartbeat-ms=500]]
//
// QoS knobs (see serve::ServeOptions): --max-concurrent caps how many
// slots execute at once (0 = the core budget — surplus slots park
// instead of time-slicing); --aging-quantum-ms bumps a queued request's
// effective priority per quantum waited (0 disables aging);
// --slo-ms sheds a submission at admission when its predicted latency
// exceeds the SLO (0 disables); --no-coalesce turns off duplicate
// in-flight request coalescing.
//
// Binds the requested port (0 = ephemeral; the bound port is printed and
// optionally written to --port-file so scripts can find it), serves the
// wire.h protocol until SIGINT/SIGTERM or a client shutdown message, then
// drains every admitted request and dumps a final stats summary.
//
// --access-log appends one JSON line per terminal request (see
// obs::AccessLog). SIGQUIT stops the server like SIGTERM but additionally
// dumps the flight recorder (last-N requests + retained outliers) to
// stdout after the drain — the post-mortem path when the server is
// misbehaving.
//
// --spool-dir persists uploads as v3 containers and keeps them resident
// as zero-copy mappings (page-cache-backed, not heap). --map pre-registers
// an existing v3 container the same way — together they let a restarted
// server rehydrate its catalog without re-uploading, and let graphs far
// larger than RAM be served out-of-core.
//
// --artifact-budget (bytes; accepts K/M/G suffixes; default 256M) bounds
// the ArtifactCache's resident composed adjacencies and propagated
// feature blocks: cold entries beyond it are evicted LRU first. With
// --spill-dir they spill to section spool files there and restore as
// zero-copy mapped views; without it they are dropped and rebuilt on
// their next use. --resident-budget
// caps the bytes of mapped graphs the GraphStore keeps resident (LRU
// eviction + transparent re-map). At startup, the spool and spill
// directories are swept for orphans: spill/tmp files from dead processes
// and containers whose fingerprint does not match their name.
//
// --meta + --shard-id run the server as one shard of a cluster: it
// registers with the freehgc_meta service at HOST:PORT (loopback only;
// a bare port also works), advertises its GraphStore catalog, and
// heartbeats load so routers can place and fail over requests. The
// shard keeps serving direct connections too.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard_agent.h"
#include "obs/flight_recorder.h"
#include "serve/server.h"

namespace {

freehgc::serve::Server* g_server = nullptr;
volatile std::sig_atomic_t g_dump_flight_recorder = 0;

// Async-signal-safe: RequestStop is one atomic store + one pipe write.
void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) g_server->RequestStop();
}

// SIGQUIT = stop + flight-recorder post-mortem. Only a flag is set here;
// the dump itself runs on the main thread after Wait() returns.
void HandleQuit(int /*sig*/) {
  g_dump_flight_recorder = 1;
  if (g_server != nullptr) g_server->RequestStop();
}

bool ParseIntFlag(const std::string& arg, const char* prefix, int* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = std::atoi(arg.c_str() + std::string(prefix).size());
  return true;
}

bool ParseInt64Flag(const std::string& arg, const char* prefix,
                    int64_t* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = std::atoll(arg.c_str() + std::string(prefix).size());
  return true;
}

// Byte count with an optional K/M/G suffix (binary multiples).
bool ParseBytesFlag(const std::string& arg, const char* prefix,
                    size_t* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  const char* value = arg.c_str() + std::string(prefix).size();
  char* end = nullptr;
  unsigned long long n = std::strtoull(value, &end, 10);
  if (end == value) return false;
  switch (*end) {
    case 'k': case 'K': n <<= 10; ++end; break;
    case 'm': case 'M': n <<= 20; ++end; break;
    case 'g': case 'G': n <<= 30; ++end; break;
    default: break;
  }
  if (*end != '\0') return false;
  *out = static_cast<size_t>(n);
  return true;
}

// Meta endpoint: "PORT" or "HOST:PORT" where HOST must be loopback (the
// cluster is single-machine multi-process).
bool ParseMetaFlag(const std::string& arg, int* port) {
  if (arg.rfind("--meta=", 0) != 0) return false;
  std::string value = arg.substr(std::string("--meta=").size());
  const size_t colon = value.rfind(':');
  if (colon != std::string::npos) {
    const std::string host = value.substr(0, colon);
    if (host != "127.0.0.1" && host != "localhost") {
      std::fprintf(stderr,
                   "--meta only supports loopback hosts, got: %s\n",
                   host.c_str());
      std::exit(2);
    }
    value = value.substr(colon + 1);
  }
  *port = std::atoi(value.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  freehgc::serve::ServerOptions options;
  std::string port_file;
  std::string spool_dir;
  std::vector<std::pair<std::string, std::string>> maps;
  int meta_port = 0;
  int shard_id = -1;
  int heartbeat_ms = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseIntFlag(arg, "--port=", &options.port) ||
        ParseIntFlag(arg, "--slots=", &options.serve.slots) ||
        ParseIntFlag(arg, "--queue-capacity=",
                     &options.serve.queue_capacity) ||
        ParseIntFlag(arg, "--threads-per-slot=",
                     &options.serve.threads_per_slot) ||
        ParseIntFlag(arg, "--max-concurrent=",
                     &options.serve.max_concurrent) ||
        ParseInt64Flag(arg, "--aging-quantum-ms=",
                       &options.serve.aging_quantum_ms) ||
        ParseInt64Flag(arg, "--slo-ms=", &options.serve.slo_ms)) {
      continue;
    }
    if (arg == "--no-coalesce") {
      options.serve.coalesce_requests = false;
      continue;
    }
    if (ParseMetaFlag(arg, &meta_port) ||
        ParseIntFlag(arg, "--shard-id=", &shard_id) ||
        ParseIntFlag(arg, "--heartbeat-ms=", &heartbeat_ms)) {
      continue;
    }
    if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(std::string("--port-file=").size());
      continue;
    }
    if (arg.rfind("--spool-dir=", 0) == 0) {
      spool_dir = arg.substr(std::string("--spool-dir=").size());
      continue;
    }
    if (ParseBytesFlag(arg, "--artifact-budget=",
                       &options.serve.artifact_budget_bytes) ||
        ParseBytesFlag(arg, "--resident-budget=",
                       &options.serve.store_resident_budget_bytes)) {
      continue;
    }
    if (arg.rfind("--spill-dir=", 0) == 0) {
      options.serve.spill_dir = arg.substr(std::string("--spill-dir=").size());
      continue;
    }
    if (arg.rfind("--access-log=", 0) == 0) {
      options.serve.access_log_path =
          arg.substr(std::string("--access-log=").size());
      continue;
    }
    if (arg.rfind("--map=", 0) == 0) {
      const std::string spec = arg.substr(std::string("--map=").size());
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "--map expects NAME=PATH, got: %s\n",
                     spec.c_str());
        return 2;
      }
      maps.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return 2;
  }

  // Orphan-spool GC: dead processes leave spill/tmp files behind, and a
  // crashed upload can leave a half-named container. Sweep before any
  // registration so stale files never shadow live ones.
  std::vector<std::string> sweep_dirs;
  if (!spool_dir.empty()) sweep_dirs.push_back(spool_dir);
  if (!options.serve.spill_dir.empty() &&
      options.serve.spill_dir != spool_dir) {
    sweep_dirs.push_back(options.serve.spill_dir);
  }
  for (const std::string& dir : sweep_dirs) {
    const freehgc::Result<int> swept = freehgc::serve::SweepSpoolDir(dir);
    if (swept.ok() && *swept > 0) {
      std::printf("swept %d orphan spool file(s) from %s\n", *swept,
                  dir.c_str());
    }
  }

  freehgc::serve::Server server(options);
  if (!spool_dir.empty()) {
    const freehgc::Status st = server.service().store().SetSpoolDir(spool_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "freehgc_server: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [name, path] : maps) {
    const auto info = server.service().store().RegisterMappedFile(name, path);
    if (!info.ok()) {
      std::fprintf(stderr, "freehgc_server: cannot map %s: %s\n", name.c_str(),
                   info.status().ToString().c_str());
      return 1;
    }
    std::printf("mapped %s from %s (%lld nodes, %lld edges)\n", name.c_str(),
                path.c_str(), static_cast<long long>(info->nodes),
                static_cast<long long>(info->edges));
  }
  const freehgc::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "freehgc_server: %s\n", st.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGQUIT, HandleQuit);

  if ((meta_port > 0) != (shard_id >= 0)) {
    std::fprintf(stderr,
                 "--meta and --shard-id must be given together\n");
    return 2;
  }
  std::unique_ptr<freehgc::cluster::ShardAgent> agent;
  if (meta_port > 0) {
    freehgc::cluster::ShardAgentOptions agent_options;
    agent_options.shard_id = static_cast<uint32_t>(shard_id);
    agent_options.meta_port = meta_port;
    agent_options.serve_port = server.port();
    agent_options.heartbeat_ms = heartbeat_ms;
    agent = std::make_unique<freehgc::cluster::ShardAgent>(agent_options,
                                                           &server.service());
    const freehgc::Status ast = agent->Start();
    if (!ast.ok()) {
      std::fprintf(stderr, "freehgc_server: cannot join cluster: %s\n",
                   ast.ToString().c_str());
      return 1;
    }
    std::printf("shard %d registered with meta service on 127.0.0.1:%d\n",
                shard_id, meta_port);
  }

  std::printf("freehgc_server listening on 127.0.0.1:%d (%d slots, queue %d)\n",
              server.port(), server.service().options().slots,
              server.service().options().queue_capacity);
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%d\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
    }
  }

  server.Wait();
  g_server = nullptr;
  if (agent) agent->Stop();
  if (g_dump_flight_recorder != 0) {
    std::printf("flight recorder dump:\n%s\n",
                freehgc::obs::FlightRecorder::Global().DumpJson().c_str());
  }
  std::printf("freehgc_server drained; final stats:\n%s",
              server.service().StatsJson().c_str());
  return 0;
}
