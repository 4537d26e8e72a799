#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "skc/net/client.h"

extern char** environ;

namespace perfbench {

using skc::Coord;
using skc::Stream;
using skc::StreamEvent;
using skc::StreamOp;

std::vector<Frame> pack_windows(const Stream& stream, std::size_t frame_events) {
  std::vector<Frame> frames;
  Frame ins{StreamOp::kInsert, {}};
  Frame del{StreamOp::kDelete, {}};
  std::size_t n_ins = 0;
  std::size_t n_del = 0;
  auto flush = [&](Frame& f, std::size_t& n) {
    if (n == 0) return;
    frames.push_back(std::move(f));
    f.coords.clear();
    n = 0;
  };
  for (const StreamEvent& e : stream) {
    if (e.op == StreamOp::kInsert) {
      ins.coords.insert(ins.coords.end(), e.point.begin(), e.point.end());
      if (++n_ins == frame_events) flush(ins, n_ins);
    } else {
      del.coords.insert(del.coords.end(), e.point.begin(), e.point.end());
      if (++n_del == frame_events) {
        flush(ins, n_ins);  // the window closes: its inserts go out first
        flush(del, n_del);
      }
    }
  }
  flush(ins, n_ins);
  flush(del, n_del);
  return frames;
}

std::int64_t net_events(const std::vector<Frame>& frames, int dim) {
  std::int64_t net = 0;
  for (const Frame& f : frames) net += f.net(dim);
  return net;
}

Stream frame_events(const Frame& frame, int dim) {
  Stream out;
  const auto d = static_cast<std::size_t>(dim);
  out.reserve(frame.coords.size() / d);
  for (std::size_t i = 0; i < frame.coords.size(); i += d) {
    out.push_back(StreamEvent{
        frame.op, skc::Point(frame.coords.begin() + static_cast<std::ptrdiff_t>(i),
                             frame.coords.begin() + static_cast<std::ptrdiff_t>(i + d))});
  }
  return out;
}

int pinned_connection(const std::string& tenant, int connections) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : tenant) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<int>(h % static_cast<std::uint64_t>(connections));
}

std::vector<std::vector<std::size_t>> pin_batches(
    const std::vector<skc::TenantBatch>& batches, int connections) {
  std::vector<std::vector<std::size_t>> out(static_cast<std::size_t>(connections));
  for (std::size_t i = 0; i < batches.size(); ++i) {
    out[static_cast<std::size_t>(pinned_connection(batches[i].tenant, connections))]
        .push_back(i);
  }
  return out;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));  // 1-based
  if (rank == 0 || samples.size() < rank + 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

std::optional<double> interquartile_mean(std::vector<double> samples) {
  if (samples.size() < 20) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t lo = samples.size() / 4;
  const std::size_t hi = samples.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo);
}

void OpTally::record(bool ok, skc::net::Status status) {
  ++attempted;
  if (ok && status == skc::net::Status::kOk) return;
  ++failed;
  if (status == skc::net::Status::kBusy) {
    ++busy;
  } else if (status == skc::net::Status::kQuotaExceeded) {
    ++quota;
  } else {
    ++errors;
  }
}

void OpTally::record_wrong() {
  ++failed;
  ++wrong;
}

void OpTally::merge(const OpTally& other) {
  attempted += other.attempted;
  failed += other.failed;
  busy += other.busy;
  quota += other.quota;
  errors += other.errors;
  wrong += other.wrong;
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

bool ServerProcess::start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string& error) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    error = "cannot spawn " + binary;
    return false;
  }

  const std::string marker = "listening on 127.0.0.1:";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream log(log_path);
    std::stringstream text;
    text << log.rdbuf();
    const std::string s = text.str();
    const std::size_t at = s.find(marker);
    if (at != std::string::npos && s.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::stoi(s.substr(at + marker.size())));
      return true;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      error = "server exited during start-up: " + s;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  error = "server did not report its port";
  kill_and_reap();
  return false;
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return -1.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return -1.0;
}

bool ServerProcess::stop() {
  if (pid_ <= 0) return false;
  skc::net::ClientOptions copts;
  copts.max_retries = 0;
  skc::net::SkcClient client(copts);
  const bool asked = client.connect("127.0.0.1", port_) && client.shutdown_server();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (asked && std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_and_reap();
  return false;
}

void ServerProcess::kill_and_reap() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const auto res = std::to_chars(num, num + sizeof(num), metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": ";
    out.append(num, res.ptr);
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
span_totals(const std::string& chrome_json) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> totals;
  const std::string name_key = "{\"name\":\"";
  const std::string dur_key = "\"dur\":";
  std::size_t at = 0;
  while ((at = chrome_json.find(name_key, at)) != std::string::npos) {
    at += name_key.size();
    const std::size_t name_end = chrome_json.find('"', at);
    const std::size_t dur = chrome_json.find(dur_key, name_end);
    if (name_end == std::string::npos || dur == std::string::npos) break;
    auto& t = totals[chrome_json.substr(at, name_end - at)];
    t.first += 1;
    t.second += std::stoll(chrome_json.substr(dur + dur_key.size(), 24));
    at = dur;
  }
  return {totals.begin(), totals.end()};
}

}  // namespace perfbench
