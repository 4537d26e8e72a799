// skc_cli — command-line front end for the streamkc pipeline.
//
//   skc_cli coreset  <points.csv> <k> [out.csv]    build a strong coreset
//   skc_cli solve    <points.csv> <k> [slack]      balanced k-means end to end
//   skc_cli assign   <points.csv> <k> [slack]      ... plus the full-data
//                                                  assignment (§3.3), printed
//                                                  as one center index per line
//   skc_cli generate <n> <k> <dim> <log_delta> [skew]   synthetic workload CSV
//   skc_cli serve    <dim> <k> [shards] [log_delta]     engine on a loopback
//                                                       port, driven by the
//                                                       command loop on stdin
//   skc_cli serve    ... --tcp <port>                   host the engine on TCP
//                                                       until SHUTDOWN instead
//   skc_cli serve    ... --trace                        start with tracing on
//   skc_cli serve    ... --tenants                      multi-tenant mode: each
//                                                       stream id gets its own
//                                                       namespace; tune with
//                                                       --spill <dir>,
//                                                       --max-resident <n>,
//                                                       --rate <events/s>
//   skc_cli client   <host> <port>                      the command loop
//                                                       against a remote server
//   skc_cli client   ... --tenant <id>                  address one namespace
//                                                       of a --tenants server
//                                                       (switch with `tenant`)
//   skc_cli trace-dump <host> <port> [out.json]         fetch the server's
//                                                       chrome://tracing JSON
//   skc_cli cluster-trace <host> <port> [out.json]      fetch a coordinator's
//                                                       fleet-merged timeline
//                                                       (one process lane per
//                                                       node, offsets applied)
//   skc_cli flight   <host> <port> [out.json]           fetch the slow-query
//                                                       flight recorder ring
//   skc_cli worker   <dim> <k> [shards] [log_delta] [--port N] [--trace]
//                    [--slow-ms <t>] [--seed X] [--eps E] cluster worker: engine
//                    [--eta H] [--exact] [--max-points N] on TCP, prints PORT <n>
//                    [--o-min V] [--o-max V] [--counting-samples V]
//                    [--countmin-width W] [--countmin-depth D]
//                    [--queue-capacity N] [--busy-backlog N]
//   skc_cli coordinator <dim> <k> [log_delta] --worker host:port ...
//                    [--tcp N] [--trace] [--slow-ms <t>]
//                                                       cluster front end over
//                                                       the given workers,
//                                                       driven by the command
//                                                       loop on stdin
//
// One command loop, over SkcClient, drives every live mode.  `serve` and
// `serve --tenants` start their server on an ephemeral loopback port and
// `coordinator` starts its own front door; each then talks to it exactly as
// `client` talks to a remote server, so every check, error and reply comes
// from the server's front door (net::FrameServer).  The few commands with no
// wire message are answered in-process by the modes that offer them.
//
// Points are integer CSV rows; see src/skc/geometry/io.h for the format.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "skc/geometry/io.h"
#include "skc/skc.h"

namespace {

using namespace skc;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  skc_cli coreset  <points.csv> <k> [out.csv]\n"
               "  skc_cli solve    <points.csv> <k> [capacity_slack=1.1]\n"
               "  skc_cli assign   <points.csv> <k> [capacity_slack=1.1]\n"
               "  skc_cli generate <n> <k> <dim> <log_delta> [skew=1.0]\n"
               "  skc_cli serve    <dim> <k> [shards=4] [log_delta=12] "
               "[--tcp <port>] [--trace] [--slow-ms <t>]\n"
               "                   [--tenants] [--spill <dir>] "
               "[--max-resident <n>] [--rate <events/s>]\n"
               "  skc_cli client   <host> <port> [--tenant <id>]\n"
               "  skc_cli trace-dump <host> <port> [out.json]\n"
               "  skc_cli cluster-trace <host> <port> [out.json]\n"
               "  skc_cli flight   <host> <port> [out.json]\n"
               "  skc_cli worker   <dim> <k> [shards=4] [log_delta=12] "
               "[--port N] [--trace] [--slow-ms <t>]\n"
               "                   [--seed X] [--eps E] [--eta H] [--exact] "
               "[--max-points N] [--o-min V] [--o-max V]\n"
               "                   [--counting-samples V] [--countmin-width W] "
               "[--countmin-depth D]\n"
               "                   [--queue-capacity N] [--busy-backlog N]\n"
               "  skc_cli coordinator <dim> <k> [log_delta=12] "
               "--worker host:port [--worker ...] [--tcp N]\n"
               "                   [--trace] [--slow-ms <t>]\n");
  return 2;
}

struct Loaded {
  PointSet points;
  int log_delta = 0;
};

/// Writes `text` to `path` ("-" = stdout).  Diagnostics on stderr.
bool write_text_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "error: short write to %s\n", path.c_str());
  return ok;
}

bool load(const std::string& path, Loaded& out) {
  PointsParseResult parsed = read_points_file(path);
  if (parsed.error) {
    std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(), parsed.error->line,
                 parsed.error->message.c_str());
    return false;
  }
  if (parsed.points.empty()) {
    std::fprintf(stderr, "error: %s holds no points\n", path.c_str());
    return false;
  }
  if (parsed.points.min_coord() < 1) {
    std::fprintf(stderr, "error: coordinates must be >= 1 (grid [1, Delta]^d)\n");
    return false;
  }
  out.points = std::move(parsed.points);
  out.log_delta = grid_log_delta(out.points.max_coord());
  return true;
}

int cmd_coreset(int argc, char** argv) {
  if (argc < 4) return usage();
  Loaded data;
  if (!load(argv[2], data)) return 1;
  const int k = std::atoi(argv[3]);
  if (k < 1) return usage();

  const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
  Timer timer;
  const OfflineBuildResult built =
      build_offline_coreset(data.points, params, data.log_delta);
  if (!built.ok) {
    std::fprintf(stderr, "coreset construction failed\n");
    return 1;
  }
  std::fprintf(stderr,
               "coreset: %lld points (of %lld) in %.0f ms, total weight %.0f, o=%g\n",
               static_cast<long long>(built.coreset.points.size()),
               static_cast<long long>(data.points.size()), timer.millis(),
               built.coreset.total_weight(), built.coreset.o);
  if (argc >= 5) {
    if (!write_coreset_file(argv[4], built.coreset)) {
      std::fprintf(stderr, "error: cannot write %s\n", argv[4]);
      return 1;
    }
  } else {
    write_coreset(std::cout, built.coreset);
  }
  return 0;
}

int solve_common(int argc, char** argv, bool with_assignment) {
  if (argc < 4) return usage();
  Loaded data;
  if (!load(argv[2], data)) return 1;
  const int k = std::atoi(argv[3]);
  const double slack = argc >= 5 ? std::atof(argv[4]) : 1.1;
  if (k < 1 || slack < 1.0) return usage();

  const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
  const OfflineBuildResult built =
      build_offline_coreset(data.points, params, data.log_delta);
  if (!built.ok) {
    std::fprintf(stderr, "coreset construction failed\n");
    return 1;
  }
  const double n = static_cast<double>(data.points.size());
  const double t = tight_capacity(n, k) * slack;
  Rng rng(1);
  CapacitatedSolverOptions opts;
  opts.restarts = 2;
  opts.delta = Coord{1} << data.log_delta;
  const CapacitatedSolution sol = capacitated_kmeans(
      built.coreset.points, k, t * built.coreset.total_weight() / n, LrOrder{2.0},
      opts, rng);
  if (!sol.feasible) {
    std::fprintf(stderr, "no feasible balanced clustering at capacity %.0f\n", t);
    return 1;
  }
  std::fprintf(stderr, "balanced k-means: coreset cost %.6g, capacity %.0f\n",
               sol.cost, t);
  for (PointIndex c = 0; c < sol.centers.size(); ++c) {
    std::fprintf(stderr, "  center %lld: %s\n", static_cast<long long>(c),
                 to_string(sol.centers[c]).c_str());
  }
  if (!with_assignment) {
    write_points(std::cout, sol.centers);
    return 0;
  }
  const FullAssignment full = assign_via_coreset(
      data.points, params, data.log_delta, built.coreset, sol.centers, t);
  if (!full.feasible) {
    std::fprintf(stderr, "assignment construction failed\n");
    return 1;
  }
  std::fprintf(stderr, "assignment: cost %.6g, max load %.0f (%.0f%% of capacity)\n",
               full.cost, full.max_load, 100.0 * full.max_load / t);
  for (CenterIndex c : full.assignment) std::printf("%d\n", c);
  return 0;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 6) return usage();
  MixtureConfig cfg;
  cfg.n = std::atoll(argv[2]);
  cfg.clusters = std::atoi(argv[3]);
  cfg.dim = std::atoi(argv[4]);
  cfg.log_delta = std::atoi(argv[5]);
  cfg.skew = argc >= 7 ? std::atof(argv[6]) : 1.0;
  cfg.spread = 0.015;
  if (cfg.n < 1 || cfg.clusters < 1 || cfg.dim < 1 || cfg.log_delta < 2) {
    return usage();
  }
  Rng rng(42);
  write_points(std::cout, gaussian_mixture(cfg, rng));
  return 0;
}

// ---------------------------------------------------------------------------
// Argument parsing shared by serve, worker and coordinator.

/// Splits argv[2..] into positionals and --flags.  --trace and --slow-ms,
/// the process-wide observability settings, are applied here; every other
/// flag goes to `on_flag` with the argument after it (nullptr for the
/// `switches`), which returns false to refuse it.  False = usage error.
bool parse_args(int argc, char** argv, std::initializer_list<std::string_view> switches,
                std::vector<const char*>& pos,
                const std::function<bool(std::string_view, const char*)>& on_flag) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag.substr(0, 2) != "--") {
      pos.push_back(argv[i]);
    } else if (flag == "--trace") {
      obs::Tracer::instance().set_enabled(true);
    } else if (std::find(switches.begin(), switches.end(), flag) != switches.end()) {
      if (!on_flag(flag, nullptr)) return false;
    } else if (i + 1 >= argc) {
      return false;
    } else if (flag == "--slow-ms") {
      const double threshold = std::atof(argv[++i]);
      if (threshold < 0) return false;
      obs::FlightRecorder::instance().set_threshold_millis(threshold);
    } else if (!on_flag(flag, argv[++i])) {
      std::fprintf(stderr, "error: bad flag %s %s\n", argv[i - 1], argv[i]);
      return false;
    }
  }
  return true;
}

bool parse_port(const char* text, long lowest, long& port) {
  port = std::atol(text);
  return port >= lowest && port <= 65535;
}

/// The `<dim> <k> [shards] [log_delta]` positionals (the coordinator has no
/// shards).
struct Shape {
  int dim = 0;
  int k = 0;
  int shards = 4;
  int log_delta = 12;
};

/// A dim the finalize walk cannot enumerate is refused here, with its own
/// message, before anything is built.
bool parse_shape(const std::vector<const char*>& pos, bool with_shards, Shape& s) {
  if (pos.size() < 2) return false;
  s.dim = std::atoi(pos[0]);
  s.k = std::atoi(pos[1]);
  std::size_t next = 2;
  if (with_shards && pos.size() > next) s.shards = std::atoi(pos[next++]);
  if (pos.size() > next) s.log_delta = std::atoi(pos[next]);
  if (s.dim > HierarchicalGrid::kMaxWalkDim) {
    std::fprintf(stderr,
                 "error: dim %d exceeds %d, the largest dimension the streaming "
                 "finalize walks (it enumerates 2^dim child cells)\n",
                 s.dim, HierarchicalGrid::kMaxWalkDim);
    return false;
  }
  return s.dim >= 1 && s.k >= 1 && s.shards >= 1 && s.log_delta >= 2;
}

// ---------------------------------------------------------------------------
// The command loop.

/// Commands with no wire message, answered in-process by the local mode
/// that offers them; each gets the rest of its line.
using LocalCommands = std::map<std::string, std::function<void(std::istream&)>>;

constexpr const char* kCommandHelp =
    "commands:  insert c1 c2 .. | delete c1 c2 .. | query [slack] | flush\n"
    "           ping | metrics | prom | checkpoint [path] | tenant [id]\n"
    "           tenants | stats [id] | tenant-stats | trace-dump [path]\n"
    "           cluster-trace [path] | flight [path] | shutdown | quit\n";

void print_error(const net::SkcClient& client) {
  std::printf("err %s\n", client.last_error().c_str());
}

/// Prints `text` and `end` when the request went through, the client's
/// error otherwise.
void print_reply(const net::SkcClient& client, bool ok, const std::string& text,
                 const char* end = "\n") {
  if (ok) {
    std::printf("%s%s", text.c_str(), end);
  } else {
    print_error(client);
  }
}

void print_query(const net::QueryReply& res) {
  std::printf("ok n=%lld summary=%llu capacity=%.0f cost=%.6g "
              "merge_ms=%.1f solve_ms=%.1f\n",
              static_cast<long long>(res.net_points),
              static_cast<unsigned long long>(res.summary_points), res.capacity,
              res.cost, res.merge_millis, res.solve_millis);
  const std::size_t dim = static_cast<std::size_t>(res.dim);
  for (std::size_t c = 0; dim > 0 && c + dim <= res.center_coords.size(); c += dim) {
    std::printf("center");
    for (std::size_t i = 0; i < dim; ++i) std::printf(" %d", res.center_coords[c + i]);
    std::printf("\n");
  }
}

/// Reads one command per line from stdin until quit, end of input or a
/// shutdown the server accepted; answers go to stdout ("ok ..." / "err ..."
/// or a document), so it is scriptable with a pipe.  The point dimension
/// lives server-side: insert/delete send every coordinate on the line.
void command_loop(net::SkcClient& client, const LocalCommands& local) {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    std::string arg, text;
    if (const auto handler = local.find(cmd); handler != local.end()) {
      handler->second(in);
    } else if (cmd == "insert" || cmd == "delete") {
      // A value no Coord holds becomes 0, which the server's [1, Delta]
      // check refuses, rather than wrapping into range.
      std::vector<Coord> p;
      for (long long c = 0; in >> c;) {
        p.push_back(c < 1 || c > std::numeric_limits<Coord>::max()
                        ? Coord{0}
                        : static_cast<Coord>(c));
      }
      if (p.empty()) {
        std::printf("err %s needs coordinates\n", cmd.c_str());
      } else {
        print_reply(client, cmd == "insert" ? client.insert(p) : client.erase(p), "ok");
      }
    } else if (cmd == "query" || cmd == "flush") {
      // flush is the epoch barrier alone: a summary-only query.
      net::QueryRequest req;
      req.summary_only = cmd == "flush";
      if (double slack = 0; !req.summary_only && in >> slack) req.capacity_slack = slack;
      net::QueryReply res;
      if (!client.query(req, res)) {
        print_error(client);
      } else if (req.summary_only) {
        std::printf("ok\n");
      } else if (!res.ok) {
        std::printf("err %s\n", res.error.c_str());
      } else {
        print_query(res);
      }
    } else if (cmd == "ping") {
      print_reply(client, client.ping(), "ok");
    } else if (cmd == "metrics") {
      const bool got = client.metrics_json(text);
      print_reply(client, got, text);
    } else if (cmd == "prom") {
      const bool got = client.prometheus_text(text);
      print_reply(client, got, text, "");  // the exposition ends its own lines
    } else if (cmd == "tenant") {
      in >> arg;  // no argument = back to the default tenant
      if (!arg.empty() && !net::valid_tenant_id(arg)) {
        std::printf("err invalid tenant id '%s'\n", arg.c_str());
      } else {
        client.set_tenant(arg);
        std::printf("ok tenant '%s'\n", arg.c_str());
      }
    } else if (cmd == "tenants" || cmd == "stats" || cmd == "tenant-stats") {
      // TENANT_STATS: one tenant's object, or, addressed to the default
      // tenant, the whole registry (which `tenants` always asks for).
      const std::string current = client.tenant();
      arg = cmd == "tenants" ? "" : current;
      if (cmd != "tenants") in >> arg;  // stats [id]: the current tenant by default
      if (!arg.empty() && !net::valid_tenant_id(arg)) {
        std::printf("err invalid tenant id '%s'\n", arg.c_str());
      } else {
        client.set_tenant(arg);
        const bool got = client.tenant_stats(text);
        client.set_tenant(current);
        print_reply(client, got, text);
      }
    } else if (cmd == "trace-dump" || cmd == "cluster-trace" || cmd == "flight") {
      std::string path = "-";
      in >> path;
      const bool got = cmd == "trace-dump"      ? client.trace_json(text)
                       : cmd == "cluster-trace" ? client.cluster_trace_json(text)
                                                : client.flight_recorder_json(text);
      if (!got) {
        print_error(client);
      } else if (write_text_file(path, text)) {
        if (path != "-") std::printf("ok %s\n", path.c_str());
      } else {
        std::printf("err cannot write %s\n", path.c_str());
      }
    } else if (cmd == "checkpoint") {
      in >> arg;  // server-side; a coordinator checkpoints its members and needs none
      const bool done = client.checkpoint(arg);
      print_reply(client, done, arg.empty() ? "ok" : "ok " + arg);
    } else if (cmd == "shutdown") {
      if (client.shutdown_server()) {
        std::printf("ok server draining\n");
        break;
      }
      print_error(client);
    } else {
      std::printf("err unknown command '%s'\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
}

/// The in-process commands of every local mode: tracing and the flight
/// recorder's threshold are settings of this process, with no wire message.
LocalCommands process_commands() {
  LocalCommands commands;
  commands["trace"] = [](std::istream& in) {
    std::string sub, path;
    in >> sub;
    if (sub == "on" || sub == "off") {
      obs::Tracer::instance().set_enabled(sub == "on");
      std::printf("ok tracing %s\n", sub.c_str());
    } else if (sub != "dump") {
      std::printf("err trace needs on|off|dump <path>\n");
    } else if (!(in >> path)) {
      std::printf("err trace dump needs a path (or -)\n");
    } else if (write_text_file(path, obs::Tracer::instance().dump_chrome_json())) {
      std::printf("ok %lld spans\n",
                  static_cast<long long>(obs::Tracer::instance().events().size()));
    } else {
      std::printf("err cannot write %s\n", path.c_str());
    }
  };
  commands["slow"] = [](std::istream& in) {
    if (double threshold = 0; in >> threshold) {
      if (threshold < 0) {
        std::printf("err slow threshold must be >= 0 ms\n");
        return;
      }
      obs::FlightRecorder::instance().set_threshold_millis(threshold);
    }
    std::printf("ok slow threshold %.3f ms\n",
                obs::FlightRecorder::instance().threshold_millis());
  };
  return commands;
}

/// Connects to the local server on `port` and runs the command loop over
/// it.  No timeouts: the loop waits at the prompt and on queries as long as
/// an in-process call would.
int drive(std::uint16_t port, const LocalCommands& local) {
  net::ClientOptions copts;
  copts.io_timeout_ms = -1;
  net::SkcClient client(copts);
  if (!client.connect("127.0.0.1", port)) {
    std::fprintf(stderr, "error: connect 127.0.0.1:%u: %s\n", port,
                 client.last_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "%sin-process:", kCommandHelp);
  for (const auto& [name, handler] : local) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  command_loop(client, local);
  return 0;
}

/// Starts `server` on loopback and prints "<what> listening on
/// 127.0.0.1:<port> (<config>)" (spawners read the port from it).  With
/// --tcp it serves until a client sends SHUTDOWN; otherwise the command
/// loop drives it from stdin.
int host(net::FrameServer& server, bool tcp, const char* what,
         const std::string& config, const char* client_args,
         const LocalCommands& local) {
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s listening on 127.0.0.1:%u (%s)\n", what, server.port(),
               config.c_str());
  int rc = 0;
  if (tcp) {
    std::fprintf(stderr, "drive it with: skc_cli client 127.0.0.1 %u%s\n",
                 server.port(), client_args);
    server.wait();  // until a client sends SHUTDOWN (or the process is killed)
  } else {
    rc = drive(server.port(), local);
  }
  server.stop();
  return rc;
}

// `serve`: one engine, or with --tenants a TenantRegistry in which every
// stream id owns an independent namespace (version-2 frames; old clients
// land on the default tenant).  --tcp <port> hosts it for remote clients
// (port 0 picks an ephemeral port, printed to stderr).
int cmd_serve(int argc, char** argv) {
  std::vector<const char*> pos;
  long tcp_port = -1;
  bool tenants = false;
  tenant::TenantRegistryOptions topts;
  topts.max_resident = 256;
  const bool parsed = parse_args(
      argc, argv, {"--tenants"}, pos, [&](std::string_view flag, const char* value) {
        if (flag == "--tcp") return parse_port(value, 0, tcp_port);
        if (flag == "--tenants") {
          tenants = true;
        } else if (flag == "--spill") {
          topts.spill_dir = value;
        } else if (flag == "--max-resident") {
          topts.max_resident = std::atoi(value);
        } else if (flag == "--rate") {
          topts.quotas.max_events_per_second = std::atof(value);
        } else {
          return false;
        }
        return topts.max_resident >= 1 && topts.quotas.max_events_per_second >= 0;
      });
  Shape shape;
  if (!parsed || !parse_shape(pos, true, shape)) return usage();

  const CoresetParams params =
      CoresetParams::practical(shape.k, LrOrder{2.0}, 0.2, 0.2);
  EngineOptions opts;
  opts.num_shards = shape.shards;
  opts.streaming.log_delta = shape.log_delta;
  const bool tcp = tcp_port >= 0;
  net::ServerOptions sopts;
  sopts.port = static_cast<std::uint16_t>(tcp ? tcp_port : 0);
  if (!tcp) sopts.idle_timeout_ms = -1;  // the loop's connection idles at the prompt
  char config[192];

  if (tenants) {
    topts.dim = shape.dim;
    topts.params = params;
    topts.engine = opts;
    tenant::TenantRegistry registry(topts);
    tenant::TenantServer server(registry, sopts);
    std::snprintf(config, sizeof(config),
                  "dim=%d k=%d log_delta=%d max_resident=%d spill=%s", shape.dim,
                  shape.k, shape.log_delta, topts.max_resident,
                  topts.spill_dir.empty() ? "<off>" : topts.spill_dir.c_str());
    const int rc = host(server, tcp, "tenant server", config, " --tenant <id>",
                        process_commands());
    if (rc == 0) std::fprintf(stderr, "%s\n", registry.stats_json().c_str());
    return rc;
  }

  ClusteringEngine engine(shape.dim, params, opts);
  net::EngineServer server(engine, sopts);
  LocalCommands local = process_commands();
  local["restore"] = [&engine](std::istream& in) {
    std::string path;
    if (!(in >> path)) {
      std::printf("err restore needs a path\n");
    } else {
      std::printf(engine.restore(path) ? "ok %s\n" : "err %s failed\n", path.c_str());
    }
  };
  std::snprintf(config, sizeof(config), "dim=%d k=%d shards=%d log_delta=%d",
                shape.dim, shape.k, shape.shards, shape.log_delta);
  const int rc = host(server, tcp, "engine", config, "", local);
  if (rc != 0) return rc;
  const EngineMetrics m = server.metrics();
  engine.shutdown();
  std::fprintf(stderr, "%s\n", metrics_json(m).c_str());
  return 0;
}

// `client`: the command loop against a remote server.
int cmd_client(int argc, char** argv) {
  std::vector<const char*> pos;
  std::string tenant_id;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--tenant")) {
      if (i + 1 >= argc) return usage();
      tenant_id = argv[++i];
      if (!net::valid_tenant_id(tenant_id)) {
        std::fprintf(stderr, "error: invalid tenant id '%s'\n",
                     tenant_id.c_str());
        return 2;
      }
    } else {
      pos.push_back(argv[i]);
    }
  }
  long port = 0;
  if (pos.size() < 2 || !parse_port(pos[1], 1, port)) return usage();
  const std::string host = pos[0];

  net::SkcClient client;
  client.set_tenant(tenant_id);
  if (!client.connect(host, static_cast<std::uint16_t>(port))) {
    std::fprintf(stderr, "error: connect %s:%ld: %s\n", host.c_str(), port,
                 client.last_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "connected to %s:%ld (tenant '%s')\n%s", host.c_str(), port,
               tenant_id.c_str(), kCommandHelp);
  command_loop(client, {});
  return 0;
}

// Cluster worker: one engine behind an EngineServer.  By default it is
// configured exactly like `skc_cli coordinator` configures itself
// (CoresetParams::practical with eps = eta = 0.2); the named flags change
// the coreset and engine options, and the coordinator must use the same
// ones (the WORKER_HELLO fingerprint handshake refuses a drifted pairing).
// Prints "PORT <n>" on stdout so spawners (cluster::WorkerProcess, and
// humans) learn the kernel-assigned port when started with --port 0.
int cmd_worker(int argc, char** argv) {
  std::vector<const char*> pos;
  long port = 0;
  double eps = 0.2, eta = 0.2;
  const char* seed = nullptr;  // practical()'s default seed unless given
  EngineOptions opts;
  net::ServerOptions sopts;
  const bool parsed = parse_args(
      argc, argv, {"--exact"}, pos, [&](std::string_view flag, const char* value) {
        if (flag == "--exact") {
          opts.streaming.exact_storing = true;
        } else if (flag == "--port") {
          return parse_port(value, 0, port);
        } else if (flag == "--seed") {
          seed = value;
        } else if (flag == "--eps") {
          eps = std::atof(value);
        } else if (flag == "--eta") {
          eta = std::atof(value);
        } else if (flag == "--max-points") {
          opts.streaming.max_points = static_cast<PointIndex>(std::atoll(value));
        } else if (flag == "--o-min") {
          opts.streaming.o_min = std::atof(value);
        } else if (flag == "--o-max") {
          opts.streaming.o_max = std::atof(value);
        } else if (flag == "--counting-samples") {
          opts.streaming.counting_samples = std::atof(value);
        } else if (flag == "--countmin-width") {
          opts.streaming.countmin_width = std::atoi(value);
        } else if (flag == "--countmin-depth") {
          opts.streaming.countmin_depth = std::atoi(value);
        } else if (flag == "--queue-capacity") {
          opts.queue_capacity = static_cast<std::size_t>(std::atol(value));
        } else if (flag == "--busy-backlog") {
          sopts.busy_backlog = std::atoll(value);
        } else {
          return false;
        }
        return true;
      });
  Shape shape;
  if (!parsed || !parse_shape(pos, true, shape)) return usage();

  CoresetParams params = CoresetParams::practical(shape.k, LrOrder{2.0}, eps, eta);
  if (seed) params.seed = std::strtoull(seed, nullptr, 10);
  opts.num_shards = shape.shards;
  opts.streaming.log_delta = shape.log_delta;
  ClusteringEngine engine(shape.dim, params, opts);

  sopts.port = static_cast<std::uint16_t>(port);
  net::EngineServer server(engine, sopts);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("PORT %u\n", server.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "worker listening on 127.0.0.1:%u (dim=%d k=%d shards=%d "
               "log_delta=%d)\n",
               server.port(), shape.dim, shape.k, shape.shards, shape.log_delta);
  server.wait();
  server.stop();
  engine.shutdown();
  return 0;
}

// Cluster coordinator: dials the given workers, serves the same wire
// protocol on its own TCP port (drive it remotely with `skc_cli client`),
// and runs the command loop over that front door.
int cmd_coordinator(int argc, char** argv) {
  std::vector<const char*> pos;
  cluster::CoordinatorOptions copts;
  long tcp_port = 0;
  const bool parsed =
      parse_args(argc, argv, {}, pos, [&](std::string_view flag, const char* value) {
        if (flag == "--tcp") return parse_port(value, 0, tcp_port);
        if (flag != "--worker") return false;
        const std::string spec = value;
        const std::size_t colon = spec.rfind(':');
        long port = 0;
        if (colon == std::string::npos || !parse_port(spec.c_str() + colon + 1, 1, port)) {
          return false;
        }
        copts.workers.push_back(
            {spec.substr(0, colon), static_cast<std::uint16_t>(port)});
        return true;
      });
  Shape shape;
  if (!parsed || !parse_shape(pos, false, shape) || copts.workers.empty()) {
    return usage();
  }

  copts.dim = shape.dim;
  copts.params = CoresetParams::practical(shape.k, LrOrder{2.0}, 0.2, 0.2);
  copts.streaming.log_delta = shape.log_delta;
  copts.server.port = static_cast<std::uint16_t>(tcp_port);
  copts.server.idle_timeout_ms = -1;  // the loop's connection idles at the prompt

  cluster::ClusterCoordinator coordinator(copts);
  std::string error;
  if (!coordinator.connect(error) || !coordinator.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "coordinator on 127.0.0.1:%u over %d worker(s)\n",
               coordinator.port(), coordinator.workers());
  LocalCommands local = process_commands();
  local["shutdown-workers"] = [&coordinator](std::istream&) {
    coordinator.shutdown_workers();
    std::printf("ok\n");
  };
  const int rc = drive(coordinator.port(), local);
  coordinator.stop();
  std::fprintf(stderr, "%s\n",
               cluster::cluster_metrics_json(coordinator.metrics()).c_str());
  return rc;
}

// One-shot TRACE_DUMP / CLUSTER_TRACE_DUMP RPC: fetch the server's span
// rings as chrome://tracing JSON and write them to a file (or stdout) —
// load the result at chrome://tracing or https://ui.perfetto.dev.  The
// cluster variant asks a coordinator for the fleet-merged timeline: every
// worker's ring pulled, clock-offset corrected, one process lane per node.
enum class Fetch { kTrace, kClusterTrace, kFlight };

int cmd_trace_dump(int argc, char** argv, Fetch what) {
  if (argc < 4) return usage();
  const std::string host = argv[2];
  const long port = std::atol(argv[3]);
  if (port < 1 || port > 65535) return usage();
  const std::string path = argc >= 5 ? argv[4] : "-";

  net::SkcClient client;
  if (!client.connect(host, static_cast<std::uint16_t>(port))) {
    std::fprintf(stderr, "error: connect %s:%ld: %s\n", host.c_str(), port,
                 client.last_error().c_str());
    return 1;
  }
  std::string json;
  const bool fetched = what == Fetch::kTrace ? client.trace_json(json)
                       : what == Fetch::kClusterTrace
                           ? client.cluster_trace_json(json)
                           : client.flight_recorder_json(json);
  if (!fetched) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  return write_text_file(path, json) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (!std::strcmp(argv[1], "coreset")) return cmd_coreset(argc, argv);
  if (!std::strcmp(argv[1], "solve")) return solve_common(argc, argv, false);
  if (!std::strcmp(argv[1], "assign")) return solve_common(argc, argv, true);
  if (!std::strcmp(argv[1], "generate")) return cmd_generate(argc, argv);
  if (!std::strcmp(argv[1], "serve")) return cmd_serve(argc, argv);
  if (!std::strcmp(argv[1], "worker")) return cmd_worker(argc, argv);
  if (!std::strcmp(argv[1], "coordinator")) return cmd_coordinator(argc, argv);
  if (!std::strcmp(argv[1], "client")) return cmd_client(argc, argv);
  if (!std::strcmp(argv[1], "trace-dump")) {
    return cmd_trace_dump(argc, argv, Fetch::kTrace);
  }
  if (!std::strcmp(argv[1], "cluster-trace")) {
    return cmd_trace_dump(argc, argv, Fetch::kClusterTrace);
  }
  if (!std::strcmp(argv[1], "flight")) {
    return cmd_trace_dump(argc, argv, Fetch::kFlight);
  }
  return usage();
}
