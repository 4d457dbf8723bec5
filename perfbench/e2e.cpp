// actnet_e2e — drives the real actnet pipelines end to end for
// perfbench/run.py and writes what it observed as one raw JSON document.
//
//   actnet_e2e --workload paper-campaign|quick-conformance|fat-tree-sparse
//              --seed N --seconds S --trace 0|1 --workers J
//              --work-dir DIR --tolerances PATH --out FILE
//   actnet_e2e --setup-only --spawn-ns T --workload ... --seed N
//              --workers J --work-dir DIR --tolerances PATH
//
// A run repeats the workload's pipeline for S seconds: at least once, and
// again only while one more iteration like the last would end in time.
// Every iteration is timed from its first call into the pipeline to its
// verified result. A check that fails, or an exception out of the library,
// marks the iteration failed and ends the run; the raw record is still
// written.
//
// With --setup-only the program times its own set-up instead: from T (the
// CLOCK_MONOTONIC nanoseconds at which the caller spawned it) through
// process start-up and the workload's set-up (campaign/cluster
// construction, cache open, tolerance load) to the moment the pipeline
// would start. It prints `setup_s <seconds>` and exits.
//
// With --trace 1 every iteration is traced: it switches on the obs metrics
// registry and the ProfScope profiler through their public API and records
// spans (name, start, end, parent, run id) around the calls into each
// layer. Simulated results must not depend on tracing, so every iteration
// of a run has to produce the same digest.
//
// Metric derivation and the correctness verdict live in perfbench/run.py;
// this program only measures and records.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/campaign.h"
#include "core/experiment.h"
#include "core/measure.h"
#include "core/parallel.h"
#include "core/probes.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "valid/conformance.h"
#include "valid/matrix.h"
#include "valid/tolerance.h"

namespace {

using namespace actnet;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_t0).count();
}

/// CLOCK_MONOTONIC in nanoseconds: the clock the caller's --spawn-ns reads.
std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

template <typename T>
std::uint64_t fnv_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}

std::string hex(std::uint64_t h) {
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
};

/// In-memory span log; written out once at the end. Spans are opened and
/// closed on the main thread only (they wrap calls into the library, whose
/// worker threads are covered by the profiler instead).
class SpanLog {
 public:
  bool enabled = false;
  int run = 0;
  std::vector<Span> spans;

  int open(const std::string& name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back(Span{name, now_s(), 0.0, parent, run});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans[static_cast<std::size_t>(idx)].end = now_s();
    stack_.pop_back();
  }

 private:
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const std::string& name)
      : log_(log), idx_(log.open(name)) {}
  ~SpanScope() { log_.close(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Per-iteration record

struct Iteration {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;        ///< process CPU over the wall interval
  double main_cpu_s = 0.0;   ///< main-thread CPU over the wall interval
  std::string digest;
  double queue_mae_pct = 0.0;
  std::size_t experiments = 0;
  bool ok = true;
  std::string detail;  ///< first failed check, empty when ok
  /// Workload-specific extras (claim counts, gate counts, cache size, ...).
  std::map<std::string, double> extra;
  /// Job rows (prefetch RunReport jobs, or the fat-tree experiments).
  std::vector<obs::JobStats> jobs;
  std::vector<double> worker_utilization;
  /// Wall times of the pipeline's steps, when it runs them one after
  /// another on the main thread (fat-tree-sparse); empty otherwise.
  std::vector<double> stage_s;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::int64_t spawn_ns = 0;
  int workers = 1;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string tolerances = "valid/tolerances.json";
  std::string out;
};

/// A workload is a set-up step that builds the state one iteration needs
/// and returns the timed pipeline over it; dropping the pipeline frees the
/// state.
using Pipeline = std::function<void(SpanLog&, Iteration&)>;
using Setup = std::function<Pipeline(int iter)>;

// ---------------------------------------------------------------------------
// paper-campaign: the cold Fig 8/9 pipeline, then the warm scoring.

struct PaperState {
  core::CampaignConfig config;
  std::unique_ptr<core::Campaign> campaign;
};

/// FNV-1a of a file's bytes; nullopt when it cannot be read.
std::optional<std::uint64_t> file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

Setup paper_campaign(const Options& o) {
  return [o](int iter) -> Pipeline {
    auto st = std::make_shared<PaperState>();
    const std::filesystem::path dir =
        std::filesystem::path(o.work_dir) / ("paper-" + std::to_string(iter));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    core::MeasureOptions opts;  // not from_env: the window scale is fixed
    opts.window = units::ms(10);
    opts.warmup = units::ms(3);
    opts.seed = o.seed;
    st->config.opts = opts;
    st->config.cache_path = (dir / "cache.tsv").string();
    st->config.jobs = o.workers;
    st->campaign = std::make_unique<core::Campaign>(st->config);
    return [o, st](SpanLog& spans, Iteration& it) {
      core::PrefetchReport pre;
      {
        SpanScope s(spans, "core.parallel.prefetch");
        pre = core::ParallelRunner(*st->campaign, o.workers)
                  .prefetch(core::PrefetchScope::kAll);
      }
      it.experiments = pre.executed;
      it.jobs = pre.run.jobs;
      it.worker_utilization.push_back(pre.run.worker_utilization());
      st->campaign.reset();
      const auto digest = file_digest(st->config.cache_path);
      if (!digest) {
        it.ok = false;
        it.detail = "cannot read the written cache " + st->config.cache_path;
        return;
      }
      it.digest = hex(*digest);

      std::unique_ptr<core::Campaign> warm;
      {
        SpanScope s(spans, "core.db.load");
        warm = std::make_unique<core::Campaign>(st->config);
      }
      std::vector<apps::AppId> all;
      for (const auto& a : apps::all_apps()) all.push_back(a.id);
      std::vector<valid::PairErrorRecord> records;
      obs::JobStats warm_sim;  // catches any simulation the warm pass runs
      {
        SpanScope s(spans, "core.models.predict");
        obs::JobStatsScope scope(&warm_sim);
        records = valid::collect_pair_errors(*warm, all);
      }
      it.extra["db_records"] = static_cast<double>(warm->db().size());
      it.extra["db_bytes"] = static_cast<double>(
          std::filesystem::file_size(st->config.cache_path));

      double sum = 0.0;
      int n = 0, under10 = 0;
      for (const auto& r : records)
        for (const auto& pr : r.predictions)
          if (pr.model == "Queue") {
            sum += pr.abs_error();
            ++n;
            if (pr.abs_error() < 10.0) ++under10;
          }
      it.queue_mae_pct = n > 0 ? sum / n : 0.0;
      it.extra["queue_under_10pct"] = under10;
      if (n != 36 || records.size() != 36) {
        it.ok = false;
        it.detail =
            "expected 36 Queue-scored pairings, got " + std::to_string(n);
      } else if (!(under10 * 4 > n * 3)) {
        it.ok = false;
        it.detail = "Fig 9 claim failed: " + std::to_string(under10) +
                    " of 36 Queue predictions under 10% error (need >75%)";
      } else if (warm_sim.events != 0) {
        it.ok = false;
        it.detail = "warm reopen re-simulated " +
                    std::to_string(warm_sim.events) + " events";
      }
    };
  };
}

// ---------------------------------------------------------------------------
// quick-conformance: valid::run_conformance(quick_matrix()) + gates.

struct QuickState {
  valid::MatrixSpec spec;
  valid::Tolerances tol;
};

/// The quick matrix's seed pair: seed 1 is the repository's own {1, 2}.
std::vector<std::uint64_t> quick_seeds(const Options& o) {
  return {2 * o.seed - 1, 2 * o.seed};
}

Setup quick_conformance(const Options& o) {
  return [o](int) -> Pipeline {
    auto st = std::make_shared<QuickState>();
    st->spec = valid::quick_matrix();
    st->spec.seeds = quick_seeds(o);
    st->spec.jobs = o.workers;
    st->tol = valid::Tolerances::load(o.tolerances, st->spec.tier);
    return [st](SpanLog& spans, Iteration& it) {
      valid::ConformanceReport report;
      {
        SpanScope s(spans, "valid.run_conformance");
        report = valid::run_conformance(st->spec);
      }
      const auto gates = valid::evaluate_gates(report, st->tol);
      int failed = 0;
      for (const auto& g : gates)
        if (!g.pass) {
          if (failed++ == 0)
            it.detail = "gate " + g.claim + " failed: observed " +
                        std::to_string(g.observed) + " > limit " +
                        std::to_string(g.limit);
        }
      it.ok = failed == 0 && !gates.empty();
      if (gates.empty()) it.detail = "no gates evaluated";
      it.extra["gates_checked"] = static_cast<double>(gates.size());
      it.extra["gates_failed"] = failed;
      it.experiments = report.records.size();
      it.jobs = report.run.jobs;
      it.worker_utilization.push_back(report.run.worker_utilization());

      std::uint64_t h = kFnvBasis;
      bool have_queue = false;
      for (const auto& s : report.predictors) {
        h = fnv_value(h, s.mean_abs_error_pct);
        h = fnv_value(h, s.p95_abs_error_pct);
        if (s.name == "Queue") {
          it.queue_mae_pct = s.mean_abs_error_pct;
          have_queue = true;
        }
      }
      for (const auto& r : report.records) h = fnv_value(h, r.measured_pct);
      h = fnv_value(h, report.mg1.mean_abs_rho_error);
      it.digest = hex(h);
      if (!have_queue && it.ok) {
        it.ok = false;
        it.detail = "no Queue predictor in the conformance report";
      }
    };
  };
}

// ---------------------------------------------------------------------------
// fat-tree-sparse: per-pod probe campaign on a 4-pod, 72-node fabric.

constexpr int kPods = 4;
constexpr int kNodesPerPod = 18;
constexpr int kExperimentsPerSweep = 6;
const Tick kFatWarmup = units::ms(3);
const Tick kFatWindow = units::ms(25);
// Timed steps the measurement window is split into (see fastest_wall in
// derive.py): a short step finds a quiet moment of the host more often.
constexpr int kFatWindowSlices = 10;
// Light end of the paper's pacing grid, one per pod so the pods' loads
// differ; P=1, M=1, 40 KiB messages.
constexpr double kPodSleepCycles[kPods] = {2.5e5, 2.5e6, 2.5e7, 2.5e5};

core::ClusterConfig fat_tree_config(std::uint64_t seed) {
  core::ClusterConfig cc;
  cc.machine.nodes = kPods * kNodesPerPod;
  // One socket per node: a single CompressionB ring per pod (two rings
  // start phase-locked on identical routes and collide every round).
  cc.machine.sockets_per_node = 1;
  cc.network.nodes = kPods * kNodesPerPod;
  cc.network.pods = kPods;
  // 64 KiB eager threshold: the 40 KiB ring messages go as single
  // transfers instead of an RTS/CTS/DATA exchange.
  cc.mpi.eager_threshold = units::KiB(64);
  cc.seed = seed;
  return cc;
}

struct ProbeRun {
  std::unique_ptr<core::Cluster> cluster;
  std::vector<core::LatencyCollector> samples =
      std::vector<core::LatencyCollector>(kPods);
};

/// Builds a fabric with an ImpactB pair per pod (nodes base, base+1) and,
/// unless `idle`, a paced 16-node CompressionB ring per pod.
std::unique_ptr<ProbeRun> build_probe_run(std::uint64_t seed, bool idle) {
  auto r = std::make_unique<ProbeRun>();
  const core::ClusterConfig cc = fat_tree_config(seed);
  r->cluster = std::make_unique<core::Cluster>(cc);
  for (int pod = 0; pod < kPods; ++pod) {
    const int base = kNodesPerPod * pod;
    mpi::Job& probe = r->cluster->add_job(
        "ImpactB/pod" + std::to_string(pod),
        mpi::Placement::per_socket(cc.machine, 2, 1, 7, base));
    r->cluster->start(probe,
                      core::make_impact_program(
                          {}, &r->samples[static_cast<std::size_t>(pod)], 1));
    if (idle) continue;
    mpi::Job& ring = r->cluster->add_job(
        "CompressionB/pod" + std::to_string(pod),
        mpi::Placement::per_socket(cc.machine, kNodesPerPod - 2, 1, 6,
                                   base + 2));
    r->cluster->start(ring, core::make_compression_program(
                                core::CompressionConfig{
                                    1, kPodSleepCycles[pod], 1, units::KiB(40)},
                                1));
  }
  return r;
}

/// Mean busy time of the pod's switch output ports (node downlinks).
double pod_port_busy(core::Cluster& c, int pod) {
  double busy = 0.0;
  for (int n = 0; n < kNodesPerPod; ++n)
    busy += static_cast<double>(
        c.network().downlink(kNodesPerPod * pod + n).busy_time());
  return busy / kNodesPerPod;
}

Setup fat_tree_sparse(const Options& o) {
  return [o](int) -> Pipeline {
    std::shared_ptr<ProbeRun> idle =
        build_probe_run(o.seed * 1000, /*idle=*/true);
    return [o, idle](SpanLog& spans, Iteration& it) {
      std::uint64_t h = kFnvBasis;
      auto timed = [&it](const std::string& key,
                         const std::function<void()>& fn) {
        obs::JobStats stats;
        stats.key = key;
        const auto t0 = Clock::now();
        {
          obs::JobStatsScope scope(&stats);
          fn();
        }
        stats.wall_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count();
        it.jobs.push_back(stats);
      };
      // Consecutive steps of the iteration, each timed on its own.
      auto step = [&it](const std::function<void()>& fn) {
        const auto t0 = Clock::now();
        fn();
        it.stage_s.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
      };

      core::Calibration calib;
      timed("calibration", [&] {
        step([&] {
          SpanScope s(spans, "core.cluster.calibration");
          core::Cluster& c = *idle->cluster;
          c.run_for(kFatWarmup + kFatWindow);
          c.stop_all();
          std::vector<core::LatencySample> all;
          for (const auto& col : idle->samples)
            all.insert(all.end(), col.samples().begin(), col.samples().end());
          calib.idle =
              core::summarize(all, kFatWarmup, kFatWarmup + kFatWindow);
          calib.service_time_us = calib.idle.min_us;
          calib.var_service_us2 = calib.idle.stddev_us * calib.idle.stddev_us;
        });
      });
      it.experiments = 1 + kExperimentsPerSweep;
      if (!(calib.service_time_us > 0.0)) {
        it.ok = false;
        it.detail = "idle calibration has no probe samples";
        return;
      }
      h = fnv_value(h, calib.service_time_us);
      h = fnv_value(h, calib.var_service_us2);

      double err_sum = 0.0;
      int err_n = 0;
      for (int k = 0; k < kExperimentsPerSweep; ++k) {
        const std::uint64_t seed =
            o.seed * 1000 + 1 + static_cast<std::uint64_t>(k);
        timed("impact/fattree/" + std::to_string(seed), [&] {
          SpanScope s(spans, "core.cluster.experiment");
          std::unique_ptr<ProbeRun> r;
          step([&] {
            SpanScope b(spans, "core.cluster.build");
            r = build_probe_run(seed, /*idle=*/false);
          });
          core::Cluster& c = *r->cluster;
          std::uint64_t events = 0;
          std::vector<double> busy0(kPods);
          step([&] {
            events += c.run_for(kFatWarmup);
            for (int pod = 0; pod < kPods; ++pod)
              busy0[static_cast<std::size_t>(pod)] = pod_port_busy(c, pod);
          });
          // The window runs in slices, each a step of its own; the engine
          // runs the same events in the same order as in one call.
          for (int i = 0; i < kFatWindowSlices; ++i)
            step([&] { events += c.run_for(kFatWindow / kFatWindowSlices); });
          step([&] {
            c.stop_all();
            h = fnv_value(h, events);
            for (int pod = 0; pod < kPods; ++pod) {
              const auto& samples = r->samples[static_cast<std::size_t>(pod)];
              const core::LatencySummary sum = core::summarize(
                  samples.samples(), kFatWarmup, kFatWarmup + kFatWindow);
              if (sum.count < 50 && it.ok) {
                it.ok = false;
                it.detail = "pod " + std::to_string(pod) + " has only " +
                            std::to_string(sum.count) + " probe samples";
              }
              const double util = core::estimate_utilization(sum, calib);
              const double ports =
                  (pod_port_busy(c, pod) -
                   busy0[static_cast<std::size_t>(pod)]) /
                  static_cast<double>(kFatWindow);
              err_sum += std::abs(util - ports) * 100.0;
              ++err_n;
              h = fnv_value(h, sum.count);
              h = fnv_value(h, sum.mean_us);
              h = fnv_value(h, sum.stddev_us);
              h = fnv_value(h, sum.min_us);
              h = fnv_value(h, sum.max_us);
              h = fnv_value(h, util);
            }
          });
          step([&] { r.reset(); });
        });
      }
      it.queue_mae_pct = err_n > 0 ? err_sum / err_n : 0.0;
      it.digest = hex(h);
    };
  };
}

// ---------------------------------------------------------------------------
// Tracing switch and snapshots

std::map<std::string, double> counter_snapshot() {
  std::map<std::string, double> out;
  for (const auto& s : obs::default_registry().snapshot())
    if (s.kind == 'c') out[s.name] = s.value;
  return out;
}

std::map<std::string, double> profile_snapshot_ns() {
  std::map<std::string, double> out;
  for (int i = 0; i < obs::kSubsystemCount; ++i) {
    const auto s = static_cast<obs::Subsystem>(i);
    out[obs::subsystem_name(s)] = static_cast<double>(obs::profile_busy_ns(s));
  }
  return out;
}

void add_delta(std::map<std::string, double>& acc,
               const std::map<std::string, double>& before,
               const std::map<std::string, double>& after) {
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    acc[name] += v - (it == before.end() ? 0.0 : it->second);
  }
}

// ---------------------------------------------------------------------------
// JSON output

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_str(k) + ": " + json_num(v);
  }
  return out + "}";
}

void write_raw(std::ostream& os, const Options& o,
               const std::vector<Iteration>& iters,
               const std::vector<Span>& spans,
               const std::map<std::string, double>& counters,
               const std::map<std::string, double>& prof_ns, double mg1_s,
               long peak_rss_kb) {
  os << "{\"workload\": " << json_str(o.workload) << ", \"seed\": " << o.seed
     << ", \"workers\": " << o.workers << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"peak_rss_kb\": " << peak_rss_kb
     << ", \"mg1_check_s\": " << json_num(mg1_s)
     << ",\n \"counters\": " << json_map(counters)
     << ",\n \"prof_ns\": " << json_map(prof_ns) << ",\n \"iterations\": [";
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    os << (i ? ",\n  " : "\n  ")
       << "{\"traced\": " << (it.traced ? "true" : "false")
       << ", \"setup_s\": " << json_num(it.setup_s)
       << ", \"wall_s\": " << json_num(it.wall_s)
       << ", \"cpu_s\": " << json_num(it.cpu_s)
       << ", \"main_cpu_s\": " << json_num(it.main_cpu_s)
       << ", \"digest\": " << json_str(it.digest)
       << ", \"queue_mae_pct\": " << json_num(it.queue_mae_pct)
       << ", \"experiments\": " << it.experiments
       << ", \"ok\": " << (it.ok ? "true" : "false")
       << ", \"detail\": " << json_str(it.detail)
       << ", \"extra\": " << json_map(it.extra)
       << ", \"worker_utilization\": [";
    for (std::size_t j = 0; j < it.worker_utilization.size(); ++j)
      os << (j ? ", " : "") << json_num(it.worker_utilization[j]);
    os << "], \"stage_s\": [";
    for (std::size_t j = 0; j < it.stage_s.size(); ++j)
      os << (j ? ", " : "") << json_num(it.stage_s[j]);
    os << "], \"jobs\": [";
    // Job rows are only needed for the per-layer split of traced runs.
    if (it.traced)
      for (std::size_t j = 0; j < it.jobs.size(); ++j) {
        const obs::JobStats& js = it.jobs[j];
        os << (j ? ", " : "") << "[" << json_str(js.key) << ", "
           << json_num(js.wall_ms) << ", " << js.events << ", "
           << (js.cached ? 1 : 0) << "]";
      }
    os << "]}";
  }
  os << "],\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n  " : "\n  ") << "[" << json_str(s.name) << ", "
       << json_num(s.start) << ", " << json_num(s.end) << ", " << s.parent
       << ", " << s.run << "]";
  }
  os << "]}\n";
}

int usage(const std::string& why) {
  std::cerr << "actnet_e2e: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  int argi = 1;
  if (argi < argc && std::string(argv[argi]) == "--setup-only") {
    o.setup_only = true;
    ++argi;
  }
  if ((argc - argi) % 2 != 0) return usage("arguments come in --key value pairs");
  for (int i = argi; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--spawn-ns") o.spawn_ns = std::stoll(v);
    else if (k == "--workers") o.workers = std::stoi(v);
    else if (k == "--work-dir") o.work_dir = v;
    else if (k == "--tolerances") o.tolerances = v;
    else if (k == "--out") o.out = v;
    else return usage("unknown argument " + k);
  }
  if (o.out.empty() && !o.setup_only) return usage("--out is required");
  if (o.setup_only && o.spawn_ns <= 0) return usage("--setup-only needs --spawn-ns");
  if (o.seed < 1) return usage("--seed must be >= 1");
  if (o.workers < 1) return usage("--workers must be >= 1");

  Setup setup;
  if (o.workload == "paper-campaign") setup = paper_campaign(o);
  else if (o.workload == "quick-conformance") setup = quick_conformance(o);
  else if (o.workload == "fat-tree-sparse") setup = fat_tree_sparse(o);
  else return usage("unknown workload '" + o.workload + "'");

  obs::set_enabled(false);
  obs::set_profiling_enabled(false);

  try {
    if (o.setup_only) {
      Pipeline pipeline = setup(0);
      const double setup_s =
          static_cast<double>(monotonic_ns() - o.spawn_ns) / 1e9;
      pipeline = nullptr;
      std::filesystem::remove_all(o.work_dir);
      std::cout << "setup_s " << json_num(setup_s) << "\n";
      return 0;
    }

    SpanLog spans;
    std::vector<Iteration> iters;
    std::map<std::string, double> counters, prof_ns;
    double mg1_s = 0.0;
    const double start = now_s();
    for (int iter = 0;; ++iter) {
      Iteration it;
      it.traced = o.trace;
      spans.enabled = it.traced;
      spans.run = iter;
      obs::set_enabled(it.traced);
      obs::set_profiling_enabled(it.traced);
      using Totals = std::map<std::string, double>;
      const Totals c0 = it.traced ? counter_snapshot() : Totals{};
      const Totals p0 = it.traced ? profile_snapshot_ns() : Totals{};

      const int root = spans.open("iteration");
      try {
        double t = now_s();
        Pipeline pipeline;
        {
          SpanScope s(spans, "setup");
          pipeline = setup(iter);
        }
        it.setup_s = now_s() - t;

        const double cpu0 = process_cpu_s(), mcpu0 = thread_cpu_s();
        t = now_s();
        {
          SpanScope s(spans, "pipeline");
          pipeline(spans, it);
        }
        it.wall_s = now_s() - t;
        it.cpu_s = process_cpu_s() - cpu0;
        it.main_cpu_s = thread_cpu_s() - mcpu0;
        pipeline = nullptr;

        if (it.traced && o.workload == "quick-conformance") {
          // run_conformance ran this check inside its own call; time the
          // same deterministic work on its own, outside the measured wall.
          const double m0 = now_s();
          {
            SpanScope s(spans, "queueing.mg1_check");
            valid::check_mg1_inversion(quick_seeds(o));
          }
          mg1_s += now_s() - m0;
        }
      } catch (const std::exception& e) {
        // A library check that throws fails the iteration like any other.
        it.ok = false;
        it.detail = e.what();
      }
      spans.close(root);

      if (it.traced) {
        add_delta(counters, c0, counter_snapshot());
        add_delta(prof_ns, p0, profile_snapshot_ns());
      }
      obs::set_enabled(false);
      obs::set_profiling_enabled(false);
      const bool ok = it.ok;
      const double next_end = now_s() + it.setup_s + it.wall_s;
      iters.push_back(std::move(it));
      if (!ok || next_end > start + o.seconds) break;
    }
    std::filesystem::remove_all(o.work_dir);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::ofstream out(o.out, std::ios::trunc);
    if (!out.good()) return usage("cannot write " + o.out);
    write_raw(out, o, iters, spans.spans, counters, prof_ns, mg1_s,
              ru.ru_maxrss);
    return out.good() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "actnet_e2e: " << e.what() << "\n";
    return 1;
  }
}
