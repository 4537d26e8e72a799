// skc_cli — command-line front end for the streamkc pipeline.
//
//   skc_cli coreset  <points.csv> <k> [out.csv]    build a strong coreset
//   skc_cli solve    <points.csv> <k> [slack]      balanced k-means end to end
//   skc_cli assign   <points.csv> <k> [slack]      ... plus the full-data
//                                                  assignment (§3.3), printed
//                                                  as one center index per line
//   skc_cli generate <n> <k> <dim> <log_delta> [skew]   synthetic workload CSV
//   skc_cli serve    <dim> <k> [shards] [log_delta]     interactive engine REPL
//   skc_cli serve    ... --tcp <port>                   host the engine on TCP
//   skc_cli serve    ... --trace                        start with tracing on
//   skc_cli serve    ... --tenants                      multi-tenant mode: each
//                                                       stream id gets its own
//                                                       namespace; tune with
//                                                       --spill <dir>,
//                                                       --max-resident <n>,
//                                                       --rate <events/s>
//   skc_cli client   <host> <port>                      REPL against a remote
//                                                       server (same commands)
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
//                                                       the given workers
//
// Points are integer CSV rows; see src/skc/geometry/io.h for the format.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
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

// Multi-tenant serve mode (`serve ... --tenants`): every stream id owns an
// independent namespace inside one TenantRegistry.  With --tcp the registry
// is hosted behind a TenantServer (version-2 frames; old clients land on
// the default tenant); without it the REPL grows `tenant <id>` to switch
// the addressed namespace and `tenants` / `stats [id]` for accounting.
int serve_tenants(const tenant::TenantRegistryOptions& topts, int dim, int k,
                  long tcp_port) {
  tenant::TenantRegistry registry(topts);
  const int log_delta = topts.engine.streaming.log_delta;

  if (tcp_port >= 0) {
    net::ServerOptions sopts;
    sopts.port = static_cast<std::uint16_t>(tcp_port);
    tenant::TenantServer server(registry, sopts);
    std::string error;
    if (!server.start(error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "tenant server listening on 127.0.0.1:%u (dim=%d k=%d "
                 "log_delta=%d max_resident=%d spill=%s)\n"
                 "drive it with: skc_cli client 127.0.0.1 %u --tenant <id>\n",
                 server.port(), dim, k, log_delta, topts.max_resident,
                 topts.spill_dir.empty() ? "<off>" : topts.spill_dir.c_str(),
                 server.port());
    server.wait();
    server.stop();
    std::fprintf(stderr, "%s\n", registry.stats_json().c_str());
    return 0;
  }

  const long long max_coord = 1LL << log_delta;
  std::fprintf(stderr,
               "tenant registry up: dim=%d k=%d log_delta=%d max_resident=%d\n"
               "commands:  tenant [id] | tenants | stats [id]\n"
               "           insert c1 .. c%d | delete c1 .. c%d | query [slack]\n"
               "           flush | metrics | prom | checkpoint <path> | quit\n",
               dim, k, log_delta, topts.max_resident, dim, dim);

  std::string current;  // addressed namespace ("" = default tenant)
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "tenant") {
      std::string id;
      in >> id;  // no argument = back to the default tenant
      if (!id.empty() && !net::valid_tenant_id(id)) {
        std::printf("err invalid tenant id '%s'\n", id.c_str());
        continue;
      }
      current = id;
      std::printf("ok tenant '%s'\n", current.c_str());
    } else if (cmd == "tenants") {
      std::printf("%s\n", registry.stats_json().c_str());
    } else if (cmd == "stats") {
      std::string id = current;
      in >> id;
      std::string json;
      if (registry.tenant_stats_json(id, json)) {
        std::printf("%s\n", json.c_str());
      } else {
        std::printf("err unknown tenant '%s'\n", id.c_str());
      }
    } else if (cmd == "insert" || cmd == "delete") {
      std::vector<Coord> p(static_cast<std::size_t>(dim));
      bool ok = true;
      for (int i = 0; i < dim; ++i) {
        long long c = 0;
        if (!(in >> c) || c < 1 || c > max_coord) {
          ok = false;
          break;
        }
        p[static_cast<std::size_t>(i)] = static_cast<Coord>(c);
      }
      if (!ok) {
        std::printf("err %s needs %d coordinates in [1, %lld]\n", cmd.c_str(),
                    dim, max_coord);
        continue;
      }
      Stream batch;
      batch.push_back(StreamEvent{
          cmd == "insert" ? StreamOp::kInsert : StreamOp::kDelete,
          std::move(p)});
      const tenant::Admit verdict = registry.submit(current, batch);
      if (verdict == tenant::Admit::kOk) {
        std::printf("ok\n");
      } else {
        std::printf("err %s\n", tenant::admit_name(verdict));
      }
    } else if (cmd == "query") {
      EngineQuery q;
      if (double slack = 0; in >> slack) q.capacity_slack = slack;
      EngineQueryResult res;
      const tenant::Admit verdict = registry.query(current, q, res);
      if (verdict != tenant::Admit::kOk) {
        std::printf("err %s\n", tenant::admit_name(verdict));
        continue;
      }
      if (!res.ok) {
        std::printf("err %s\n", res.error.c_str());
        continue;
      }
      std::printf("ok n=%lld summary=%lld capacity=%.0f cost=%.6g "
                  "merge_ms=%.1f solve_ms=%.1f\n",
                  static_cast<long long>(res.net_points),
                  static_cast<long long>(res.summary.points.size()),
                  res.capacity, res.solution.cost, res.merge_millis,
                  res.solve_millis);
      for (PointIndex c = 0; c < res.solution.centers.size(); ++c) {
        std::printf("center %s\n", to_string(res.solution.centers[c]).c_str());
      }
    } else if (cmd == "flush") {
      registry.flush();
      std::printf("ok\n");
    } else if (cmd == "metrics") {
      std::printf("%s\n", registry.stats_json().c_str());
    } else if (cmd == "prom") {
      // No transport in-process: only the tenant families.
      std::printf("%s",
                  tenant::tenant_prometheus_text(registry.stats()).c_str());
    } else if (cmd == "checkpoint") {
      std::string path;
      if (!(in >> path)) {
        std::printf("err checkpoint needs a path\n");
        continue;
      }
      const tenant::Admit verdict = registry.checkpoint(current, path);
      if (verdict == tenant::Admit::kOk) {
        std::printf("ok %s\n", path.c_str());
      } else {
        std::printf("err %s\n", tenant::admit_name(verdict));
      }
    } else {
      std::printf("err unknown command '%s'\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
  std::fprintf(stderr, "%s\n", registry.stats_json().c_str());
  return 0;
}

// Line-oriented REPL over a live ClusteringEngine.  Reads commands from
// stdin, answers on stdout ("ok ..." / "err ..."), diagnostics on stderr —
// scriptable with a pipe, usable by hand.  With --tcp <port> the engine is
// hosted on a loopback TCP socket instead (drive it with `skc_cli client`);
// port 0 picks an ephemeral port, printed to stderr.
int cmd_serve(int argc, char** argv) {
  std::vector<const char*> pos;
  long tcp_port = -1;
  bool tenants = false;
  std::string spill_dir;
  int max_resident = 256;
  double rate = 0.0;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--tcp")) {
      if (i + 1 >= argc) return usage();
      tcp_port = std::atol(argv[++i]);
      if (tcp_port < 0 || tcp_port > 65535) return usage();
    } else if (!std::strcmp(argv[i], "--trace")) {
      obs::Tracer::instance().set_enabled(true);
    } else if (!std::strcmp(argv[i], "--slow-ms")) {
      if (i + 1 >= argc) return usage();
      const double threshold = std::atof(argv[++i]);
      if (threshold < 0) return usage();
      obs::FlightRecorder::instance().set_threshold_millis(threshold);
    } else if (!std::strcmp(argv[i], "--tenants")) {
      tenants = true;
    } else if (!std::strcmp(argv[i], "--spill")) {
      if (i + 1 >= argc) return usage();
      spill_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--max-resident")) {
      if (i + 1 >= argc) return usage();
      max_resident = std::atoi(argv[++i]);
      if (max_resident < 1) return usage();
    } else if (!std::strcmp(argv[i], "--rate")) {
      if (i + 1 >= argc) return usage();
      rate = std::atof(argv[++i]);
      if (rate < 0) return usage();
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 2) return usage();
  const int dim = std::atoi(pos[0]);
  const int k = std::atoi(pos[1]);
  const int shards = pos.size() >= 3 ? std::atoi(pos[2]) : 4;
  const int log_delta = pos.size() >= 4 ? std::atoi(pos[3]) : 12;
  if (dim < 1 || k < 1 || shards < 1 || log_delta < 2) return usage();

  const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
  EngineOptions opts;
  opts.num_shards = shards;
  opts.streaming.log_delta = log_delta;

  if (tenants) {
    tenant::TenantRegistryOptions topts;
    topts.dim = dim;
    topts.params = params;
    topts.engine = opts;
    topts.max_resident = max_resident;
    topts.spill_dir = spill_dir;
    topts.quotas.max_events_per_second = rate;
    return serve_tenants(topts, dim, k, tcp_port);
  }

  ClusteringEngine engine(dim, params, opts);

  if (tcp_port >= 0) {
    net::ServerOptions sopts;
    sopts.port = static_cast<std::uint16_t>(tcp_port);
    net::EngineServer server(engine, sopts);
    std::string error;
    if (!server.start(error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "engine listening on 127.0.0.1:%u (dim=%d k=%d shards=%d "
                 "log_delta=%d)\ndrive it with: skc_cli client 127.0.0.1 %u\n",
                 server.port(), dim, k, shards, log_delta, server.port());
    server.wait();  // until a client sends SHUTDOWN (or the process is killed)
    server.stop();
    const EngineMetrics m = server.metrics();
    engine.shutdown();
    std::fprintf(stderr, "%s\n", metrics_json(m).c_str());
    return 0;
  }

  const long long max_coord = 1LL << log_delta;
  std::fprintf(stderr,
               "engine up: dim=%d k=%d shards=%d log_delta=%d\n"
               "commands:  insert c1 .. c%d | delete c1 .. c%d | query [slack]\n"
               "           flush | metrics | prom | trace on|off|dump <path>\n"
               "           slow [ms] | flight [path]\n"
               "           checkpoint <path> | restore <path> | quit\n",
               dim, k, shards, log_delta, dim, dim);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "insert" || cmd == "delete") {
      std::vector<Coord> p(static_cast<std::size_t>(dim));
      bool ok = true;
      for (int i = 0; i < dim; ++i) {
        long long c = 0;
        if (!(in >> c) || c < 1 || c > max_coord) {
          ok = false;
          break;
        }
        p[static_cast<std::size_t>(i)] = static_cast<Coord>(c);
      }
      if (!ok) {
        std::printf("err %s needs %d coordinates in [1, %lld]\n", cmd.c_str(),
                    dim, max_coord);
        continue;
      }
      engine.submit(Stream{StreamEvent{
          cmd == "insert" ? StreamOp::kInsert : StreamOp::kDelete,
          std::move(p)}});
      std::printf("ok\n");
    } else if (cmd == "query") {
      EngineQuery q;
      if (double slack = 0; in >> slack) q.capacity_slack = slack;
      const EngineQueryResult res = engine.query(q);
      if (!res.ok) {
        std::printf("err %s\n", res.error.c_str());
        continue;
      }
      std::printf("ok n=%lld summary=%lld capacity=%.0f cost=%.6g "
                  "merge_ms=%.1f solve_ms=%.1f\n",
                  static_cast<long long>(res.net_points),
                  static_cast<long long>(res.summary.points.size()),
                  res.capacity, res.solution.cost, res.merge_millis,
                  res.solve_millis);
      for (PointIndex c = 0; c < res.solution.centers.size(); ++c) {
        std::printf("center %s\n", to_string(res.solution.centers[c]).c_str());
      }
    } else if (cmd == "flush") {
      engine.flush();
      std::printf("ok applied=%lld\n",
                  static_cast<long long>(engine.metrics().events_applied));
    } else if (cmd == "metrics") {
      std::printf("%s\n", metrics_json(engine.metrics()).c_str());
    } else if (cmd == "prom") {
      std::printf("%s", obs::prometheus_text(engine.metrics()).c_str());
    } else if (cmd == "trace") {
      std::string sub;
      if (!(in >> sub)) {
        std::printf("err trace needs on|off|dump <path>\n");
      } else if (sub == "on" || sub == "off") {
        obs::Tracer::instance().set_enabled(sub == "on");
        std::printf("ok tracing %s\n", sub.c_str());
      } else if (sub == "dump") {
        std::string path;
        if (!(in >> path)) {
          std::printf("err trace dump needs a path (or -)\n");
        } else if (write_text_file(path, obs::Tracer::instance().dump_chrome_json())) {
          std::printf("ok %lld spans\n",
                      static_cast<long long>(
                          obs::Tracer::instance().events().size()));
        } else {
          std::printf("err cannot write %s\n", path.c_str());
        }
      } else {
        std::printf("err unknown trace subcommand '%s'\n", sub.c_str());
      }
    } else if (cmd == "slow") {
      if (double threshold = 0; in >> threshold) {
        if (threshold < 0) {
          std::printf("err slow threshold must be >= 0 ms\n");
          continue;
        }
        obs::FlightRecorder::instance().set_threshold_millis(threshold);
      }
      std::printf("ok slow threshold %.3f ms\n",
                  obs::FlightRecorder::instance().threshold_millis());
    } else if (cmd == "flight") {
      std::string path = "-";
      in >> path;
      if (write_text_file(path, obs::FlightRecorder::instance().dump_json())) {
        if (path != "-") std::printf("ok %s\n", path.c_str());
      } else {
        std::printf("err cannot write %s\n", path.c_str());
      }
    } else if (cmd == "checkpoint" || cmd == "restore") {
      std::string path;
      if (!(in >> path)) {
        std::printf("err %s needs a path\n", cmd.c_str());
        continue;
      }
      const bool saved = cmd == "checkpoint" ? engine.checkpoint(path)
                                             : engine.restore(path);
      std::printf(saved ? "ok %s\n" : "err %s failed\n", path.c_str());
    } else {
      std::printf("err unknown command '%s'\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
  engine.shutdown();
  std::fprintf(stderr, "%s\n", metrics_json(engine.metrics()).c_str());
  return 0;
}

// REPL against a remote EngineServer — the network twin of cmd_serve's
// in-process loop, speaking the same commands over SkcClient.  The point
// dimension lives server-side, so insert/delete take however many
// coordinates appear on the line.
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
  if (pos.size() < 2) return usage();
  const std::string host = pos[0];
  const long port = std::atol(pos[1]);
  if (port < 1 || port > 65535) return usage();

  net::SkcClient client;
  client.set_tenant(tenant_id);
  if (!client.connect(host, static_cast<std::uint16_t>(port))) {
    std::fprintf(stderr, "error: connect %s:%ld: %s\n", host.c_str(), port,
                 client.last_error().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "connected to %s:%ld (tenant '%s')\n"
               "commands:  insert c1 c2 .. | delete c1 c2 .. | query [slack]\n"
               "           ping | metrics | prom | trace-dump [path]\n"
               "           cluster-trace [path] | flight [path]\n"
               "           tenant [id] | tenant-stats\n"
               "           checkpoint <path> | shutdown | quit\n",
               host.c_str(), port, tenant_id.c_str());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "insert" || cmd == "delete") {
      std::vector<Coord> p;
      for (long long c = 0; in >> c;) p.push_back(static_cast<Coord>(c));
      const bool sent = cmd == "insert" ? client.insert(p) : client.erase(p);
      if (sent) {
        std::printf("ok\n");
      } else {
        std::printf("err %s\n", client.last_error().c_str());
      }
    } else if (cmd == "query") {
      net::QueryRequest req;
      if (double slack = 0; in >> slack) req.capacity_slack = slack;
      net::QueryReply res;
      if (!client.query(req, res)) {
        std::printf("err %s\n", client.last_error().c_str());
        continue;
      }
      if (!res.ok) {
        std::printf("err %s\n", res.error.c_str());
        continue;
      }
      std::printf("ok n=%lld summary=%llu capacity=%.0f cost=%.6g "
                  "merge_ms=%.1f solve_ms=%.1f\n",
                  static_cast<long long>(res.net_points),
                  static_cast<unsigned long long>(res.summary_points),
                  res.capacity, res.cost, res.merge_millis, res.solve_millis);
      const std::size_t dim = static_cast<std::size_t>(res.dim);
      for (std::size_t c = 0; dim > 0 && c + dim <= res.center_coords.size();
           c += dim) {
        std::printf("center");
        for (std::size_t i = 0; i < dim; ++i) {
          std::printf(" %d", res.center_coords[c + i]);
        }
        std::printf("\n");
      }
    } else if (cmd == "ping") {
      if (client.ping()) {
        std::printf("ok\n");
      } else {
        std::printf("err %s\n", client.last_error().c_str());
      }
    } else if (cmd == "metrics") {
      std::string json;
      if (client.metrics_json(json)) {
        std::printf("%s\n", json.c_str());
      } else {
        std::printf("err %s\n", client.last_error().c_str());
      }
    } else if (cmd == "prom") {
      std::string text;
      if (client.prometheus_text(text)) {
        std::printf("%s", text.c_str());
      } else {
        std::printf("err %s\n", client.last_error().c_str());
      }
    } else if (cmd == "tenant") {
      std::string id;
      in >> id;  // no argument = back to the default tenant
      if (!id.empty() && !net::valid_tenant_id(id)) {
        std::printf("err invalid tenant id '%s'\n", id.c_str());
        continue;
      }
      client.set_tenant(id);
      std::printf("ok tenant '%s'\n", id.c_str());
    } else if (cmd == "tenant-stats") {
      std::string json;
      if (client.tenant_stats(json)) {
        std::printf("%s\n", json.c_str());
      } else {
        std::printf("err %s\n", client.last_error().c_str());
      }
    } else if (cmd == "trace-dump" || cmd == "cluster-trace" ||
               cmd == "flight") {
      std::string path = "-";
      in >> path;
      std::string json;
      const bool fetched = cmd == "trace-dump" ? client.trace_json(json)
                           : cmd == "cluster-trace"
                               ? client.cluster_trace_json(json)
                               : client.flight_recorder_json(json);
      if (!fetched) {
        std::printf("err %s\n", client.last_error().c_str());
      } else if (write_text_file(path, json)) {
        if (path != "-") std::printf("ok %s\n", path.c_str());
      } else {
        std::printf("err cannot write %s\n", path.c_str());
      }
    } else if (cmd == "checkpoint") {
      std::string path;
      if (!(in >> path)) {
        std::printf("err checkpoint needs a server-side path\n");
        continue;
      }
      std::printf(client.checkpoint(path) ? "ok %s\n" : "err %s failed\n",
                  path.c_str());
    } else if (cmd == "shutdown") {
      if (client.shutdown_server()) {
        std::printf("ok server draining\n");
        break;
      }
      std::printf("err %s\n", client.last_error().c_str());
    } else {
      std::printf("err unknown command '%s'\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
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
  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    if (!std::strcmp(flag, "--trace")) {
      obs::Tracer::instance().set_enabled(true);
      continue;
    }
    if (!std::strcmp(flag, "--exact")) {
      opts.streaming.exact_storing = true;
      continue;
    }
    if (std::strncmp(flag, "--", 2) != 0) {
      pos.push_back(flag);
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (!std::strcmp(flag, "--port")) {
      port = std::atol(value);
      if (port < 0 || port > 65535) return usage();
    } else if (!std::strcmp(flag, "--slow-ms")) {
      const double threshold = std::atof(value);
      if (threshold < 0) return usage();
      obs::FlightRecorder::instance().set_threshold_millis(threshold);
    } else if (!std::strcmp(flag, "--seed")) {
      seed = value;
    } else if (!std::strcmp(flag, "--eps")) {
      eps = std::atof(value);
    } else if (!std::strcmp(flag, "--eta")) {
      eta = std::atof(value);
    } else if (!std::strcmp(flag, "--max-points")) {
      opts.streaming.max_points = static_cast<PointIndex>(std::atoll(value));
    } else if (!std::strcmp(flag, "--o-min")) {
      opts.streaming.o_min = std::atof(value);
    } else if (!std::strcmp(flag, "--o-max")) {
      opts.streaming.o_max = std::atof(value);
    } else if (!std::strcmp(flag, "--counting-samples")) {
      opts.streaming.counting_samples = std::atof(value);
    } else if (!std::strcmp(flag, "--countmin-width")) {
      opts.streaming.countmin_width = std::atoi(value);
    } else if (!std::strcmp(flag, "--countmin-depth")) {
      opts.streaming.countmin_depth = std::atoi(value);
    } else if (!std::strcmp(flag, "--queue-capacity")) {
      opts.queue_capacity = static_cast<std::size_t>(std::atol(value));
    } else if (!std::strcmp(flag, "--busy-backlog")) {
      sopts.busy_backlog = std::atoll(value);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag);
      return usage();
    }
  }
  if (pos.size() < 2) return usage();
  const int dim = std::atoi(pos[0]);
  const int k = std::atoi(pos[1]);
  const int shards = pos.size() >= 3 ? std::atoi(pos[2]) : 4;
  const int log_delta = pos.size() >= 4 ? std::atoi(pos[3]) : 12;
  if (dim < 1 || k < 1 || shards < 1 || log_delta < 2) return usage();

  CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, eps, eta);
  if (seed) params.seed = std::strtoull(seed, nullptr, 10);
  opts.num_shards = shards;
  opts.streaming.log_delta = log_delta;
  ClusteringEngine engine(dim, params, opts);

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
               server.port(), dim, k, shards, log_delta);
  server.wait();
  server.stop();
  engine.shutdown();
  return 0;
}

// Cluster coordinator: dials the given workers, serves the same wire
// protocol on its own TCP port (drive it with `skc_cli client`), and offers
// the serve-style REPL locally.
int cmd_coordinator(int argc, char** argv) {
  std::vector<const char*> pos;
  cluster::CoordinatorOptions copts;
  long tcp_port = 0;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--worker")) {
      if (i + 1 >= argc) return usage();
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "error: --worker needs host:port, got %s\n",
                     spec.c_str());
        return 2;
      }
      const long port = std::atol(spec.c_str() + colon + 1);
      if (port < 1 || port > 65535) return usage();
      copts.workers.push_back(
          {spec.substr(0, colon), static_cast<std::uint16_t>(port)});
    } else if (!std::strcmp(argv[i], "--tcp")) {
      if (i + 1 >= argc) return usage();
      tcp_port = std::atol(argv[++i]);
      if (tcp_port < 0 || tcp_port > 65535) return usage();
    } else if (!std::strcmp(argv[i], "--trace")) {
      obs::Tracer::instance().set_enabled(true);
    } else if (!std::strcmp(argv[i], "--slow-ms")) {
      if (i + 1 >= argc) return usage();
      const double threshold = std::atof(argv[++i]);
      if (threshold < 0) return usage();
      obs::FlightRecorder::instance().set_threshold_millis(threshold);
    } else if (!std::strncmp(argv[i], "--", 2)) {
      return usage();  // unknown option
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 2 || copts.workers.empty()) return usage();
  const int dim = std::atoi(pos[0]);
  const int k = std::atoi(pos[1]);
  const int log_delta = pos.size() >= 3 ? std::atoi(pos[2]) : 12;
  if (dim < 1 || k < 1 || log_delta < 2) return usage();

  copts.dim = dim;
  copts.params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
  copts.streaming.log_delta = log_delta;
  copts.server.port = static_cast<std::uint16_t>(tcp_port);

  cluster::ClusterCoordinator coordinator(copts);
  std::string error;
  if (!coordinator.connect(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!coordinator.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "coordinator on 127.0.0.1:%u over %d worker(s)\n"
               "commands:  insert c1 .. c%d | delete c1 .. c%d | "
               "query [slack]\n"
               "           flush | metrics | prom | cluster-trace [path] | "
               "flight [path]\n"
               "           checkpoint | shutdown-workers | quit\n",
               coordinator.port(), coordinator.workers(), dim, dim);

  const long long max_coord = 1LL << log_delta;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "insert" || cmd == "delete") {
      std::vector<Coord> p(static_cast<std::size_t>(dim));
      bool ok = true;
      for (int i = 0; i < dim; ++i) {
        long long c = 0;
        if (!(in >> c) || c < 1 || c > max_coord) {
          ok = false;
          break;
        }
        p[static_cast<std::size_t>(i)] = static_cast<Coord>(c);
      }
      if (!ok) {
        std::printf("err %s needs %d coordinates in [1, %lld]\n", cmd.c_str(),
                    dim, max_coord);
        continue;
      }
      EventBatch event(dim);
      event.push_back(cmd == "insert" ? StreamOp::kInsert : StreamOp::kDelete, p);
      const bool sent = coordinator.submit(event);
      std::printf(sent ? "ok\n" : "err cluster rejected the event\n");
    } else if (cmd == "query") {
      EngineQuery q;
      if (double slack = 0; in >> slack) q.capacity_slack = slack;
      const EngineQueryResult res = coordinator.query(q);
      if (!res.ok) {
        std::printf("err %s\n", res.error.c_str());
        continue;
      }
      std::printf("ok n=%lld summary=%lld capacity=%.0f cost=%.6g "
                  "merge_ms=%.1f solve_ms=%.1f\n",
                  static_cast<long long>(res.net_points),
                  static_cast<long long>(res.summary.points.size()),
                  res.capacity, res.solution.cost, res.merge_millis,
                  res.solve_millis);
      for (PointIndex c = 0; c < res.solution.centers.size(); ++c) {
        std::printf("center %s\n", to_string(res.solution.centers[c]).c_str());
      }
    } else if (cmd == "flush") {
      coordinator.flush();
      std::printf("ok\n");
    } else if (cmd == "metrics") {
      std::printf("%s\n", cluster::cluster_metrics_json(coordinator.metrics()).c_str());
    } else if (cmd == "prom") {
      std::printf("%s",
                  cluster::cluster_prometheus_text(coordinator.metrics()).c_str());
    } else if (cmd == "cluster-trace") {
      std::string path = "-";
      in >> path;
      if (write_text_file(path, coordinator.cluster_trace_json())) {
        if (path != "-") std::printf("ok %s\n", path.c_str());
      } else {
        std::printf("err cannot write %s\n", path.c_str());
      }
    } else if (cmd == "flight") {
      std::string path = "-";
      in >> path;
      if (write_text_file(path, obs::FlightRecorder::instance().dump_json())) {
        if (path != "-") std::printf("ok %s\n", path.c_str());
      } else {
        std::printf("err cannot write %s\n", path.c_str());
      }
    } else if (cmd == "checkpoint") {
      std::printf(coordinator.checkpoint_members() ? "ok\n"
                                                   : "err a member failed\n");
    } else if (cmd == "shutdown-workers") {
      coordinator.shutdown_workers();
      std::printf("ok\n");
    } else {
      std::printf("err unknown command '%s'\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
  coordinator.stop();
  std::fprintf(stderr, "%s\n",
               cluster::cluster_metrics_json(coordinator.metrics()).c_str());
  return 0;
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
