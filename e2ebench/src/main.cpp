// e2ebench: the repository's end-to-end benchmark.
//
// Self-hosts service::HttpServer + service::SolveService on loopback in
// this process (as bench/loadgen does), drives one workload closed-loop
// from client threads, checks every answer against a reference optimum
// after the timed window, and prints its metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   e2ebench --workload cold-mixed|redundant-ladders|edit-mix --seed N
//            --seconds S --trace 0|1 [--corpus DIR] [--out DIR]
//   e2ebench --workload W --seed N --dump-stream K   (stream hash only)
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice on fresh servers (untraced, then traced with the same seed),
// replays the traced inputs through the lower layers, writes the spans
// to DIR/spans-<workload>-<seed>.json and reports the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "sat/solver.hpp"
#include "service/http_client.hpp"
#include "service/http_server.hpp"
#include "service/solve_service.hpp"
#include "util/json.hpp"

namespace {

using namespace bench;
namespace service = fta::service;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string corpus = "corpus";
  std::string out = ".bench_out";
  int dump_stream = 0;
};

// --- hosting -----------------------------------------------------------------

/// service.handle spans, recorded by the benchmark's handler glue around
/// SolveService::handle. The request id rides in the query string, which
/// the service's router ignores.
struct HandleLog {
  std::mutex mutex;
  std::vector<Span> spans;
};

std::uint64_t rid_of(const std::string& path) {
  const auto at = path.find("?rid=");
  return at == std::string::npos ? 0 : std::strtoull(path.c_str() + at + 5, nullptr, 10);
}

struct Host {
  std::unique_ptr<service::SolveService> svc;
  std::unique_ptr<service::HttpServer> server;
  std::vector<std::string> ids;    ///< Edit-mix: resource id per model.
  std::vector<std::string> etags;  ///< Edit-mix: current etag per model.
  HandleLog* log = nullptr;        ///< Set for traced phases.

  ~Host() {
    if (svc) svc->begin_shutdown();
    if (server) server->shutdown();
  }
};

/// Constructs and binds the service, waits until it answers, and primes
/// it: one solve of the workload's priming tree, or (edit-mix) the
/// registration of every owned model. Returns the seconds this took.
double set_up(Host& h, const Workload& w, HandleLog* log) {
  const double t0 = now_s();
  h.svc = std::make_unique<service::SolveService>();
  h.log = log;
  service::SolveService* svc = h.svc.get();
  service::HttpServerOptions hopts;
  if (log == nullptr) {
    h.server = std::make_unique<service::HttpServer>(
        hopts, [svc](const service::HttpRequest& r) { return svc->handle(r); });
  } else {
    h.server = std::make_unique<service::HttpServer>(
        hopts, [svc, log](const service::HttpRequest& r) {
          const double start = now_s();
          service::HttpResponse resp = svc->handle(r);
          const double end = now_s();
          std::lock_guard<std::mutex> lock(log->mutex);
          log->spans.push_back({0, 0, rid_of(r.path), "service.handle", start, end});
          return resp;
        });
  }
  service::HttpClient client("127.0.0.1", h.server->port());
  const auto ready = client.get("/v1/healthz", 10.0);
  if (!ready || ready->status != 200) {
    throw std::runtime_error("service did not become healthy");
  }
  if (!w.priming_body().empty()) {
    const auto r = client.post("/v1/solve", w.priming_body(), 120.0);
    if (!r || r->status != 200 ||
        r->body.find("\"status\": \"optimal\"") == std::string::npos) {
      throw std::runtime_error("priming solve failed: " +
                               (r ? r->body.substr(0, 200) : "transport"));
    }
  }
  h.ids.assign(w.models().size(), "");
  h.etags.assign(w.models().size(), "");
  for (std::size_t m = 0; m < w.models().size(); ++m) {
    if (w.models()[m].owner < 0) continue;
    const auto r = client.post("/v1/trees", w.models()[m].solve_body, 120.0);
    if (!r || r->status != 201) {
      throw std::runtime_error("registering model " + std::to_string(m) +
                               " failed: " + (r ? r->body : "transport"));
    }
    const auto doc = fta::util::JsonValue::parse(r->body);
    h.ids[m] = doc.get_string("id", "");
    h.etags[m] = doc.get_string("etag", "");
  }
  return now_s() - t0;
}

/// Whether the `"logCost": inf` defect is still there: a PATCH that takes
/// out of service an event in every minimal cut set leaves no failure of
/// non-zero probability, and its answer prints `inf`, which is not JSON. edit-mix draws no such edits (a workload's operations must not
/// fail), so each edit-mix run probes the defect once after its timed
/// window on a two-event AND plant and prints the outcome.
bool inf_defect_present(Host& h) {
  service::HttpClient c("127.0.0.1", h.server->port());
  const auto reg = c.post(
      "/v1/trees",
      "{\"tenant\": \"probe\", \"tree\": \"toplevel t;\\nt and a b;\\n"
      "a prob=0.1;\\nb prob=0.2;\\n\"}",
      10.0);
  if (!reg || reg->status != 201) {
    throw std::runtime_error("defect probe: registration failed");
  }
  const auto doc = fta::util::JsonValue::parse(reg->body);
  const auto r = c.request(
      "PATCH", "/v1/trees/" + doc.get_string("id", ""),
      "{\"tenant\": \"probe\", \"etag\": \"" + doc.get_string("etag", "") +
          "\", \"delta\": [{\"op\": \"toggle\", \"event\": \"a\", "
          "\"enabled\": false}]}",
      10.0);
  if (!r) throw std::runtime_error("defect probe: no answer");
  try {
    fta::util::JsonValue::parse(r->body);
    return false;
  } catch (const std::exception&) {
    return true;
  }
}

// --- the closed loop ---------------------------------------------------------

/// Requests an untraced run answers at least, so that latency_p90_ms has
/// 10 samples beyond it. The traced halves report means and are not held
/// to it.
constexpr std::size_t kMinRequests = 100;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Phase {
  std::vector<Sample> samples;
  double wall = 0.0;  ///< Seconds of workload wall time.
  /// Peak RSS when the min_requests-th answer came in. Read there rather
  /// than at the end, because the service keeps the artefacts of every
  /// request it saw: at the end it would grow with the number of
  /// requests a run managed, that is with the host's speed.
  double rss_mb = 0.0;
  fta::sat::GlobalSatCounters sat0, sat1;
  fta::util::JsonValue stats0, stats1;
};

fta::util::JsonValue statsz(Host& h) {
  service::HttpClient c("127.0.0.1", h.server->port());
  const auto r = c.get("/v1/statsz", 10.0);
  return fta::util::JsonValue::parse(r ? r->body : "{}");
}

Sample send(service::HttpClient& client, Host& h, Request req,
            std::uint64_t rid) {
  Sample s;
  s.rid = rid;
  std::string method = "POST";
  if (req.kind == ReqKind::Patch) {
    method = "PATCH";
    req.path = "/v1/trees/" + h.ids[req.model];
    req.body.insert(1, "\"etag\": \"" + h.etags[req.model] + "\", ");
  }
  std::string path = req.path;
  if (h.log != nullptr) path += "?rid=" + std::to_string(rid);
  s.start = now_s();
  const auto r = client.request(method, path, req.body, 120.0);
  s.end = now_s();
  if (r) {
    s.status = r->status;
    s.body = r->body;
    s.approximate =
        s.body.find("\"status\": \"approximate\"") != std::string::npos;
  }
  s.missed_deadline =
      req.deadline_ms > 0.0 && s.seconds() * 1e3 > req.deadline_ms;
  if (req.kind == ReqKind::Patch) {
    // A PATCH that timed out may still have landed its edit (the edit
    // precedes the solve): read the resource's etag back, untimed.
    std::string answer = s.body;
    if (s.status < 200 || s.status >= 300) {
      const std::string tenant =
          fta::util::JsonValue::parse(req.body).get_string("tenant", "");
      const auto got = client.request(
          "GET", req.path, "{\"tenant\": \"" + tenant + "\"}", 120.0);
      answer = got && got->status == 200 ? got->body : "";
    }
    const std::string key = "\"etag\": \"";
    const auto at = answer.find(key);
    if (at != std::string::npos) {
      const auto from = at + key.size();
      const std::string etag = answer.substr(from, answer.find('"', from) - from);
      s.delta_landed = etag != h.etags[req.model];
      h.etags[req.model] = etag;
    }
  }
  s.req = std::move(req);
  return s;
}

/// Runs the workload for `seconds`, and on past them until at least
/// `min_requests` have been answered.
Phase run_phase(Workload& w, Host& h, double seconds, std::size_t min_requests,
                std::atomic<std::uint64_t>& next_rid) {
  Phase p;
  p.stats0 = statsz(h);
  p.sat0 = fta::sat::Solver::global_counters();
  if (w.name() != "edit-mix") {
    // One client. Inputs are generated in small untimed batches; the
    // workload wall time is the sum of the send windows.
    service::HttpClient client("127.0.0.1", h.server->port());
    while (p.wall < seconds || p.samples.size() < min_requests) {
      std::vector<Request> batch;
      for (int i = 0; i < 8; ++i) batch.push_back(w.next());
      const double t0 = now_s();
      for (Request& r : batch) {
        p.samples.push_back(send(client, h, std::move(r), next_rid++));
        if (p.samples.size() == min_requests) p.rss_mb = peak_rss_mb();
      }
      p.wall += now_s() - t0;
    }
  } else {
    std::vector<std::vector<Sample>> per(w.clients());
    std::vector<std::thread> threads;
    std::atomic<std::size_t> answered{0};
    const double t0 = now_s();
    for (int c = 0; c < w.clients(); ++c) {
      threads.emplace_back([&, c] {
        service::HttpClient client("127.0.0.1", h.server->port());
        while (now_s() - t0 < seconds || answered.load() < min_requests) {
          per[c].push_back(send(client, h, w.next_for(c), next_rid++));
          if (++answered == min_requests) p.rss_mb = peak_rss_mb();
        }
      });
    }
    for (auto& t : threads) t.join();
    p.wall = now_s() - t0;
    for (auto& v : per) {
      for (auto& s : v) p.samples.push_back(std::move(s));
    }
  }
  p.sat1 = fta::sat::Solver::global_counters();
  p.stats1 = statsz(h);
  return p;
}

// --- metrics -----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Latency in ms as the metrics see it: a failed or refused request
/// missed every limit, so it counts at no less than its deadline (or, on
/// workloads without one, the slowest answer of the run).
std::vector<double> effective_latencies(const std::vector<Sample>& ss,
                                        bool reads_only) {
  double slowest = 0.0;
  for (const Sample& s : ss) slowest = std::max(slowest, s.seconds() * 1e3);
  std::vector<double> out;
  for (const Sample& s : ss) {
    if (reads_only && s.req.kind == ReqKind::Patch) continue;
    double ms = s.seconds() * 1e3;
    if (s.failed()) {
      ms = std::max(ms, s.req.deadline_ms > 0.0 ? s.req.deadline_ms : slowest);
    }
    out.push_back(ms);
  }
  return out;
}

double stat(const fta::util::JsonValue& doc, const char* section,
            const char* key) {
  const fta::util::JsonValue* sec = doc.find(section);
  return sec == nullptr ? 0.0 : sec->get_number(key, 0.0);
}

double delta(const Phase& p, const char* section, const char* key) {
  return stat(p.stats1, section, key) - stat(p.stats0, section, key);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : ms) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Ceiling of failed_frac on the workloads that are meant to succeed. At
/// seed state the worst of twenty seeds was under 1% on cold-mixed and 0
/// on edit-mix (see README). The ok_frac bound alone would let failures
/// grow from under 1% to 25%.
double failed_ceiling(const std::string& workload) {
  if (workload == "cold-mixed") return 0.03;
  if (workload == "edit-mix") return 0.005;
  return 1.0;
}

/// Workload predictions checked on every run; a broken one fails the run
/// so a workload cannot silently stop stressing its layer.
std::vector<std::string> check_predictions(const Workload& w, const Phase& p) {
  std::vector<std::string> v;
  const auto failed = std::count_if(p.samples.begin(), p.samples.end(),
                                    [](const Sample& s) { return s.failed(); });
  const double failed_frac =
      static_cast<double>(failed) / std::max<std::size_t>(1, p.samples.size());
  if (failed_frac > failed_ceiling(w.name())) {
    v.push_back(w.name() + " failed_frac " + std::to_string(failed_frac) +
                " is above its ceiling " +
                std::to_string(failed_ceiling(w.name())));
  }
  if (w.name() == "cold-mixed") {
    const double cache = delta(p, "engine", "cacheHits");
    const double memo = delta(p, "engine", "memoHits");
    const double coalesced = delta(p, "global", "coalescedHits");
    if (cache != 0 || memo != 0 || coalesced != 0) {
      v.push_back("cold-mixed saw cache/memo/coalesced hits: " +
                  std::to_string(cache) + "/" + std::to_string(memo) + "/" +
                  std::to_string(coalesced));
    }
  }
  if (w.name() == "edit-mix") {
    for (const Sample& s : p.samples) {
      if (s.req.kind != ReqKind::Patch || !s.req.delta.weight_only()) continue;
      if (s.status != 200) continue;
      if (s.body.find("\"weightOnly\": true") == std::string::npos ||
          s.body.find("\"sessionRebased\": true") == std::string::npos) {
        v.push_back("weight-only PATCH rid " + std::to_string(s.rid) +
                    " was not weight_only + session_rebased");
        break;
      }
    }
  }
  return v;
}

std::vector<Metric> end_to_end(const Phase& p, double setup_s, double rss_mb) {
  const auto& ss = p.samples;
  // Completed: answered (2xx) or run out of time (504); refusals and
  // transport errors are not completed requests.
  std::size_t completed = 0, failed = 0;
  for (const Sample& s : ss) {
    if ((s.status >= 200 && s.status < 300) || s.status == 504) ++completed;
    if (s.failed()) ++failed;
  }
  const auto all = effective_latencies(ss, false);
  const auto reads = effective_latencies(ss, true);
  std::vector<Metric> m = {
      {"latency_p50_ms", "ms", quantile(all, 0.5)},
      {"latency_p90_ms", "ms", quantile(all, 0.9)},
      {"throughput_rps", "1/s", completed / std::max(1e-9, p.wall)},
      {"read_p50_ms", "ms", quantile(reads, 0.5)},
      {"ok_frac", "frac",
       1.0 - static_cast<double>(failed) / std::max<std::size_t>(1, ss.size())},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MB", rss_mb},
  };
  return m;
}

/// Edit-mix write latency, printed beside the metrics (see README: it has
/// no value on the read-only workloads, so it is not a gated metric).
void print_write_split(const Phase& p) {
  std::vector<double> writes;
  for (const Sample& s : p.samples) {
    if (s.req.kind == ReqKind::Patch) writes.push_back(s.seconds() * 1e3);
  }
  if (!writes.empty()) {
    std::printf("  %-30s %14.6g ms (%zu PATCHes)\n", "write_p50_ms",
                median(writes), writes.size());
  }
}

void print_shapes(const Phase& p) {
  std::map<std::string, std::vector<double>> lat;
  std::map<std::string, int> fails, errors;
  for (const Sample& s : p.samples) {
    lat[s.req.shape].push_back(s.seconds() * 1e3);
    if (s.failed()) ++fails[s.req.shape];
    if (s.status < 200 || s.status >= 300) ++errors[s.req.shape];
  }
  std::printf("per shape: requests, p50 ms, mean ms, max ms, failed, "
              "of which non-2xx\n");
  for (auto& [shape, v] : lat) {
    double sum = 0.0;
    for (double x : v) sum += x;
    std::printf("  %-22s %5zu %10.3f %10.3f %10.3f %5d %5d\n", shape.c_str(),
                v.size(), median(v), sum / static_cast<double>(v.size()),
                *std::max_element(v.begin(), v.end()), fails[shape],
                errors[shape]);
  }
}

// --- trace attribution -------------------------------------------------------

std::string layer_of(const std::string& span) {
  if (span == "client.request") return "transport";
  if (span == "probe.apply_delta") return "core";
  return span.substr(0, span.find('.'));
}

/// Links client.request -> service.handle -> replay spans by request id
/// and returns the per-layer self time (ms per replayed request).
std::map<std::string, double> attribute(std::vector<Span>& spans,
                                        std::size_t* requests) {
  std::map<std::uint64_t, std::uint64_t> client_of, handle_of;
  for (const Span& s : spans) {
    if (s.name == "client.request") client_of[s.rid] = s.id;
    if (s.name == "service.handle") handle_of[s.rid] = s.id;
  }
  std::set<std::uint64_t> replayed;
  for (Span& s : spans) {
    if (s.name == "service.handle") {
      s.parent = client_of.count(s.rid) ? client_of[s.rid] : 0;
    } else if (s.parent == 0 && s.name != "client.request" &&
               s.name != "probe.apply_delta") {
      s.parent = handle_of.count(s.rid) ? handle_of[s.rid] : 0;
      replayed.insert(s.rid);
    }
  }
  std::map<std::uint64_t, double> child_time;
  for (const Span& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.seconds();
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    if (s.name == "probe.apply_delta" || !replayed.count(s.rid)) continue;
    self[layer_of(s.name)] += (s.seconds() - child_time[s.id]) * 1e3;
  }
  *requests = replayed.size();
  for (auto& [layer, ms] : self) ms /= std::max<std::size_t>(1, replayed.size());
  return self;
}

void write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<Span>& spans) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"time_unit\": \"s\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %llu, \"parent\": %llu, \"rid\": %llu, "
                  "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.rid), s.name.c_str(),
                  s.start, s.end);
    out << buf << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// --- entry points ------------------------------------------------------------

int dump_stream(const Args& a) {
  Workload w(a.workload, a.seed, a.corpus);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto feed = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (int c = 0; c < w.clients(); ++c) {
    for (int i = 0; i < a.dump_stream; ++i) {
      const Request r = w.name() == "edit-mix" ? w.next_for(c) : w.next();
      feed(r.path);
      feed(r.body);
    }
  }
  for (const Model& m : w.models()) feed(m.solve_body);
  std::printf("%016llx\n", static_cast<unsigned long long>(h));
  return 0;
}

void emit(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<Metric>& ms) {
  std::string j = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    j += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  std::printf("%s}}\n", j.c_str());
}

/// Errored requests for the result line: no answer (transport), an answer
/// that is not valid JSON, or a non-2xx other than the service's deadline
/// answers. A 504
/// deadline_exceeded or 503 deadline_unmeetable, like a 200-approximate or
/// a late answer, is the deadline outcome redundant-ladders measures; those
/// count in failed_frac (reported as ok_frac), not here.
bool errored(const Sample& s) {
  if (s.malformed) return true;
  if (s.status >= 200 && s.status < 300) return false;
  return s.body.find("\"deadline_exceeded\"") == std::string::npos &&
         s.body.find("\"deadline_unmeetable\"") == std::string::npos;
}

std::size_t hard_failures(const std::vector<Sample>& ss) {
  return static_cast<std::size_t>(std::count_if(ss.begin(), ss.end(), errored));
}

/// Marks the answers the oracle could not read as failed requests.
void mark_malformed(std::vector<Sample>& ss, const OracleReport& o) {
  const std::set<std::uint64_t> bad(o.malformed.begin(), o.malformed.end());
  for (Sample& s : ss) s.malformed = bad.count(s.rid) > 0;
}

void report_oracle(const OracleReport& o) {
  std::printf("oracle: %zu answers, %zu vs BDD optimum, %zu vs tree optimum, "
              "%zu validity-only, %zu wrong, %zu not valid JSON\n",
              o.answers, o.checked_bdd, o.checked_dp, o.validity_only, o.wrong,
              o.malformed.size());
  for (const std::string& e : o.errors) std::printf("  WRONG: %s\n", e.c_str());
}

int run(const Args& a) {
  std::atomic<std::uint64_t> next_rid{1};
  const int threads = hardware_threads();
  bool correct = true;
  std::vector<std::string> violations;

  if (a.trace == 0) {
    Workload w(a.workload, a.seed, a.corpus);
    // Set-up is repeated and its median reported; the last host serves.
    const int reps = a.workload == "edit-mix" ? 15 : 31;
    std::vector<double> setups;
    std::unique_ptr<Host> host;
    for (int i = 0; i < reps; ++i) {
      host.reset();
      host = std::make_unique<Host>();
      setups.push_back(set_up(*host, w, nullptr));
    }
    const auto [lo, hi] = std::minmax_element(setups.begin(), setups.end());
    std::printf("set-up: %d times, median %.6f s, min %.6f s, max %.6f s\n",
                reps, median(setups), *lo, *hi);
    Phase p = run_phase(w, *host, a.seconds, kMinRequests, next_rid);
    if (a.workload == "edit-mix") {
      std::printf("defect probe, PATCH zeroing every cut answers invalid "
                  "JSON: %s\n",
                  inf_defect_present(*host) ? "yes (defect present)" : "no");
    }
    host.reset();
    const OracleReport o = check_answers(w, p.samples, threads);
    mark_malformed(p.samples, o);
    report_oracle(o);
    violations = check_predictions(w, p);
    correct = o.wrong == 0 && violations.empty();
    print_shapes(p);
    const auto ms = end_to_end(p, median(setups), p.rss_mb);
    print_table("end-to-end (" + a.workload + ", seed " + std::to_string(a.seed) +
                    ", " + std::to_string(w.clients()) + " client(s), " +
                    std::to_string(p.samples.size()) + " requests)",
                ms);
    if (a.workload == "edit-mix") print_write_split(p);
    for (const auto& v : violations) std::printf("PREDICTION BROKEN: %s\n", v.c_str());
    emit(correct, p.samples.size(), hard_failures(p.samples), ms);
    return correct ? 0 : 1;
  }

  // Traced mode: the same seed untraced, then traced, each on a fresh
  // server, so the overhead compares identical request streams.
  const double half = a.seconds / 2.0;
  Workload wa(a.workload, a.seed, a.corpus);
  Phase pa;
  {
    Host host;
    set_up(host, wa, nullptr);
    pa = run_phase(wa, host, half, 0, next_rid);
  }
  Workload wb(a.workload, a.seed, a.corpus);
  HandleLog log;
  Phase pb;
  {
    Host host;
    set_up(host, wb, &log);
    pb = run_phase(wb, host, half, 0, next_rid);
  }
  const double session_mb = stat(pb.stats1, "engine", "sessionMemoryBytes") / 1e6;
  const std::uint64_t first_id = 1;
  std::vector<Span> spans;
  for (const Sample& s : pb.samples) {
    spans.push_back({0, 0, s.rid, "client.request", s.start, s.end});
  }
  for (Span& s : log.spans) spans.push_back(s);
  for (std::size_t i = 0; i < spans.size(); ++i) spans[i].id = first_id + i;
  const ReplayReport rep = replay(wb, pb.samples, half, first_id + spans.size());
  for (const Span& s : rep.spans) spans.push_back(s);
  std::size_t replayed = 0;
  const auto self = attribute(spans, &replayed);
  const std::string span_path = a.out + "/spans-" + a.workload + "-" +
                                std::to_string(a.seed) + ".json";
  write_spans(span_path, a.workload, a.seed, spans);

  OracleReport oa = check_answers(wa, pa.samples, threads);
  const OracleReport ob = check_answers(wb, pb.samples, threads);
  mark_malformed(pa.samples, oa);
  mark_malformed(pb.samples, ob);
  for (std::uint64_t rid : ob.malformed) oa.malformed.push_back(rid);
  oa.answers += ob.answers;
  oa.checked_bdd += ob.checked_bdd;
  oa.checked_dp += ob.checked_dp;
  oa.validity_only += ob.validity_only;
  oa.wrong += ob.wrong;
  for (const auto& e : ob.errors) oa.errors.push_back(e);
  report_oracle(oa);
  violations = check_predictions(wa, pa);
  for (const auto& v : check_predictions(wb, pb)) violations.push_back(v);
  for (const auto& v : rep.violations) violations.push_back(v);
  correct = oa.wrong == 0 && violations.empty();

  // Per-request means over the traced phase.
  double handle = 0.0, transport = 0.0;
  std::map<std::uint64_t, double> handle_by_rid;
  for (const Span& s : log.spans) handle_by_rid[s.rid] = s.seconds();
  double client_replayed = 0.0;
  std::set<std::uint64_t> replayed_rids;
  for (const Span& s : rep.spans) replayed_rids.insert(s.rid);
  for (const Sample& s : pb.samples) {
    const double h = handle_by_rid.count(s.rid) ? handle_by_rid[s.rid] : 0.0;
    handle += h;
    transport += s.seconds() - h;
    if (replayed_rids.count(s.rid)) client_replayed += s.seconds();
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, pb.samples.size()));
  const double requests = std::max(1.0, delta(pb, "global", "requests"));
  const double lookups =
      delta(pb, "engine", "cacheHits") + delta(pb, "engine", "cacheMisses");
  const double client_ms_replayed =
      client_replayed * 1e3 / std::max<std::size_t>(1, replayed);
  const double untraced_p50 = quantile(effective_latencies(pa.samples, false), 0.5);
  const double traced_p50 = quantile(effective_latencies(pb.samples, false), 0.5);
  std::size_t failed = 0;
  for (const Sample& s : pa.samples) failed += s.failed() ? 1 : 0;
  const auto r = [&](const char* k) { return rep.metrics.at(k); };
  auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };

  std::vector<Metric> ms = {
      {"format.parse_ms", "ms", r("format.parse_ms")},
      {"logic.encode_ms", "ms", r("logic.encode_ms")},
      {"logic.hard_clauses", "count", r("logic.hard_clauses")},
      {"preprocess.ms", "ms", r("preprocess.ms")},
      {"preprocess.removed_vars_frac", "frac", r("preprocess.removed_vars_frac")},
      {"core.prepare_ms", "ms", r("core.prepare_ms")},
      {"core.prepare_self_ms", "ms", r("core.prepare_self_ms")},
      {"core.solve_prepared_ms", "ms", r("core.solve_prepared_ms")},
      {"core.apply_delta_ms", "ms", r("core.apply_delta_ms")},
      {"core.prepare_calls", "count", r("core.prepare_calls")},
      {"core.self_ms", "ms", self_of("core")},
      {"maxsat.solve_ms", "ms", r("maxsat.solve_ms")},
      {"maxsat.unknown_frac", "frac", r("maxsat.unknown_frac")},
      {"maxsat.useful_work_frac", "frac", r("maxsat.useful_work_frac")},
      {"sat.calls", "count", (pb.sat1.solves - pb.sat0.solves) / n},
      {"sat.decisions", "count", (pb.sat1.decisions - pb.sat0.decisions) / n},
      {"sat.propagations", "count",
       (pb.sat1.propagations - pb.sat0.propagations) / n},
      {"sat.conflicts", "count", (pb.sat1.conflicts - pb.sat0.conflicts) / n},
      {"engine.analyze_ms", "ms", r("engine.analyze_ms")},
      {"engine.queue_wait_ms", "ms", r("engine.queue_wait_ms")},
      {"engine.self_ms", "ms", self_of("engine")},
      {"engine.cache_hit_frac", "frac",
       lookups > 0 ? delta(pb, "engine", "cacheHits") / lookups : 0.0},
      {"engine.memo_hit_frac", "frac", delta(pb, "engine", "memoHits") / requests},
      {"engine.session_memory_mb", "MB", session_mb},
      {"service.handle_ms", "ms", handle * 1e3 / n},
      {"service.self_ms", "ms", self_of("service")},
      {"service.transport_ms", "ms", transport * 1e3 / n},
      {"service.coalesced_frac", "frac",
       delta(pb, "global", "coalescedHits") / requests},
      {"service.rejected_frac", "frac",
       (delta(pb, "global", "rejectedQuota") +
        delta(pb, "global", "rejectedCapacity") +
        delta(pb, "global", "rejectedDeadline")) /
           requests},
      {"front_end_frac", "frac",
       client_ms_replayed > 0 ? r("front_end_ms") / client_ms_replayed : 0.0},
      {"failed_frac", "frac",
       static_cast<double>(failed) /
           std::max<std::size_t>(1, pa.samples.size())},
      {"trace.overhead_frac", "frac",
       untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0},
      {"oracle.checked", "count",
       static_cast<double>(oa.checked_bdd + oa.checked_dp)},
  };

  std::printf("self time per replayed request (%s, %zu of %zu traced "
              "requests replayed, client latency %.3f ms each)\n",
              a.workload.c_str(), replayed, pb.samples.size(), client_ms_replayed);
  for (const char* layer : {"transport", "service", "format", "engine", "core",
                            "logic", "preprocess", "maxsat"}) {
    const double v = self_of(layer);
    std::printf("  %-12s %12.4f ms  %6.1f%%\n", layer, v,
                client_ms_replayed > 0 ? 100.0 * v / client_ms_replayed : 0.0);
  }
  std::printf("  tracing overhead: p50 %.4f ms traced vs %.4f ms untraced "
              "(%+.2f%%)\n", traced_p50, untraced_p50,
              untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0);
  std::printf("  spans: %s (%zu spans)\n", span_path.c_str(), spans.size());
  print_table("per-layer (" + a.workload + ", seed " + std::to_string(a.seed) + ")",
              ms);
  for (const auto& v : violations) std::printf("PREDICTION BROKEN: %s\n", v.c_str());
  emit(correct, pa.samples.size() + pb.samples.size(),
       hard_failures(pa.samples) + hard_failures(pb.samples), ms);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload cold-mixed|redundant-ladders|edit-mix "
               "--seed N --seconds S --trace 0|1 [--corpus DIR] [--out DIR] "
               "[--dump-stream K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--corpus") a.corpus = v;
    else if (k == "--out") a.out = v;
    else if (k == "--dump-stream") a.dump_stream = std::atoi(v);
    else return usage();
  }
  if (a.workload != "cold-mixed" && a.workload != "redundant-ladders" &&
      a.workload != "edit-mix") {
    return usage();
  }
  if (a.workload == "cold-mixed" && !std::filesystem::is_directory(a.corpus)) {
    std::fprintf(stderr, "corpus directory %s not found\n", a.corpus.c_str());
    return 2;
  }
  try {
    if (a.dump_stream > 0) return dump_stream(a);
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
