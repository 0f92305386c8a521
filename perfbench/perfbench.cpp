/// \file perfbench.cpp
/// \brief Whole-stack benchmark program: runs one workload against the
///        public APIs of algo, ir, dd, sim, serve, net, router and obs,
///        times the calls into each layer from outside, verifies every
///        output, and prints one JSON report on stdout.
///
/// Usage:
///   perfbench --workload <paper_circuits|serve_batch|router_ckpt>
///             --seed <n> --seconds <s> --trace <0|1>
///             --root <repository checkout> --work-dir <scratch dir>
///
/// With --trace 1 the timed region is split: the first half runs without
/// tracing (the baseline of obs.trace_overhead_ratio), the second half
/// under an obs::TraceCollector whose Chrome trace is written to
/// <work-dir>/trace.json for the reducer in run.py.
///
/// Workloads (why each exists is recorded in BENCHMARK.json):
///  * paper_circuits — grover_18, shor_253_16 and supremacy_4x4_12, each
///    under the engine default and the paper's winning strategy for its
///    family; one client, one simulation at a time (closed loop).
///  * serve_batch — one client streams manifests of small jobs into an
///    in-process serve::SimulationService (nproc workers, result cache with
///    a spill directory); about a fifth of the jobs repeat earlier ones.
///  * router_ckpt — one client routes 8-job manifests of QASM text through
///    router::Router to two in-process net::WorkerServers (2 workers each)
///    that stream a checkpoint frame at every block boundary.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/benchmarks.hpp"
#include "algo/grover.hpp"
#include "algo/numbertheory.hpp"
#include "algo/shor.hpp"
#include "dd/migration.hpp"
#include "dd/package.hpp"
#include "ir/hash.hpp"
#include "ir/qasm.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "router/router.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace ddsim;
using Clock = std::chrono::steady_clock;

/// Category of every span the benchmark itself records around a call into
/// a layer. The span name's prefix before the first '.' names the layer.
constexpr const char* kBenchCat = "bench";

/// Set-up is timed in two rounds, one before the timed phase and one after
/// verification; each round repeats it at least kSetupRepeats times and
/// for at least kSetupRoundSeconds. setup_s is the median of both rounds.
/// Sub-millisecond set-ups (serve_batch) run at speeds that drift by 25%
/// over seconds, so a single one-second round moved its median by 20%
/// from run to run; two rounds a run apart sample the drift the way the
/// timed phase does.
constexpr std::size_t kSetupRepeats = 12;
constexpr double kSetupRoundSeconds = 1.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (the "inclusive" definition); 0 for an
/// empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

rusage selfUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double peakRssMb() {
  return static_cast<double>(selfUsage().ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Involuntary context switches of every thread of this process so far:
/// how often a runnable thread was preempted (on router_ckpt, mostly by
/// the wakeups of checkpoint frames).
std::uint64_t involuntarySwitches() {
  return static_cast<std::uint64_t>(selfUsage().ru_nivcsw);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t cpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Run fn(i) for i in [0, n) on up to `threads` threads.
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(threads, n); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        fn(i);
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
}

// ------------------------------------------------------------- the report

/// Everything one run measured. `metrics` holds both the end-to-end and
/// the per-layer values; run.py picks the ones the trace flag asks for.
class Report {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    if (failures_.size() < 20) {
      failures_.push_back(why);
    }
  }

  /// Record a program-exported rate. Rates outside [0,1] are kept as
  /// measured and listed as known defects (never clamped or dropped).
  void checkRate(const std::string& name, double value) {
    if (value >= 0.0 && value <= 1.0) {
      return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& flag = rateFlags_[name];
    flag.first += 1;
    flag.second = std::max(flag.second, value);
  }
  void checkRates(const sim::SimulationStats& s) {
    checkRate("PackageStats::identitySkipRate", s.dd.identitySkipRate());
    checkRate("CacheStats::mulHitRate", s.cache.mulHitRate());
    checkRate("CacheStats::gcRetentionRate", s.cache.gcRetentionRate());
  }

  void note(const std::string& key, const std::string& jsonValue) {
    notes_[key] = jsonValue;
  }

  [[nodiscard]] std::string toJson() const {
    std::ostringstream os;
    os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      os << (i ? ", " : "") << '"' << jsonEscape(failures_[i]) << '"';
    }
    os << "], \"rate_flags\": [";
    bool first = true;
    for (const auto& [name, flag] : rateFlags_) {
      os << (first ? "" : ", ") << "{\"name\": \"" << name
         << "\", \"readings_outside_0_1\": " << flag.first
         << ", \"max\": " << jsonNumber(flag.second) << '}';
      first = false;
    }
    os << "], \"metrics\": {";
    first = true;
    for (const auto& [name, value] : metrics_) {
      os << (first ? "" : ", ") << '"' << name << "\": " << jsonNumber(value);
      first = false;
    }
    os << '}';
    for (const auto& [key, value] : notes_) {
      os << ", \"" << key << "\": " << value;
    }
    os << '}';
    return os.str();
  }

  [[nodiscard]] std::uint64_t rateFlagCount() const {
    std::uint64_t n = 0;
    for (const auto& [name, flag] : rateFlags_) {
      n += flag.first;
    }
    return n;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::pair<std::uint64_t, double>> rateFlags_;
};

/// Collects set-up times over the rounds of one run.
class SetupTimer {
 public:
  /// One round of set-ups; returns the last one. The others are torn down
  /// untimed, kTeardownBatch at a time on parallel threads: a router_ckpt
  /// cluster takes up to 0.4 s to stop, because its servers poll for
  /// shutdown every 200 ms.
  template <typename T>
  std::unique_ptr<T> round(const std::function<std::unique_ptr<T>()>& setUp) {
    constexpr std::size_t kTeardownBatch = 8;
    std::unique_ptr<T> last;
    std::vector<std::unique_ptr<T>> retired;
    const auto tearDown = [&retired] {
      parallelFor(retired.size(), retired.size(),
                  [&retired](std::size_t i) { retired[i].reset(); });
      retired.clear();
    };
    double total = 0.0;
    for (std::size_t n = 0; n < kSetupRepeats || total < kSetupRoundSeconds;
         ++n) {
      if (last) {
        retired.push_back(std::move(last));
      }
      if (retired.size() == kTeardownBatch) {
        tearDown();
      }
      const auto t0 = Clock::now();
      last = setUp();
      samples_.push_back(since(t0));
      total += samples_.back();
    }
    tearDown();
    return last;
  }

  void report(Report& report) const { report.set("setup_s", median(samples_)); }

 private:
  std::vector<double> samples_;
};

/// Per-layer counters summed over a set of simulations. Counts are raw
/// numerators and denominators; no program-computed rate is reported.
struct SimTotals {
  std::uint64_t jobs = 0;  ///< simulations the counters below are summed over
  double runS = 0.0;
  double overheadS = 0.0;
  std::uint64_t mxv = 0;
  std::uint64_t mxm = 0;
  std::uint64_t mulCalls = 0;
  std::uint64_t addCalls = 0;
  std::uint64_t identitySkips = 0;
  std::uint64_t mulHits = 0;
  std::uint64_t mulMisses = 0;
  std::uint64_t gcRuns = 0;
  std::uint64_t peakNodes = 0;
  double applyS = 0.0;
  double combineS = 0.0;
  double measureS = 0.0;

  void addCounters(const sim::SimulationStats& s) {
    ++jobs;
    mxv += s.mxvCount;
    mxm += s.mxmCount;
    mulCalls += s.dd.recursiveMulVCalls + s.dd.recursiveMulMCalls;
    addCalls += s.dd.recursiveAddCalls;
    identitySkips += s.dd.identitySkipsMV + s.dd.identitySkipsMM;
    mulHits += s.cache.mulMVHits + s.cache.mulMMHits;
    mulMisses += s.cache.mulMVMisses + s.cache.mulMMMisses;
    gcRuns += s.dd.garbageCollections;
    peakNodes = std::max<std::uint64_t>(peakNodes, s.dd.peakLiveNodes);
  }
  void addTrace(const sim::SimulationTrace& t) {
    for (const auto& step : t.steps) {
      switch (step.kind) {
        case sim::StepKind::ApplyToState: applyS += step.seconds; break;
        case sim::StepKind::CombineMatrix: combineS += step.seconds; break;
        case sim::StepKind::Measure: measureS += step.seconds; break;
      }
    }
  }
  void addTo(Report& r) const {
    r.set("sim.jobs", static_cast<double>(jobs));
    r.set("sim.run_s", runS);
    r.set("sim.overhead_s", overheadS);
    r.set("sim.mxv_count", static_cast<double>(mxv));
    r.set("sim.mxm_count", static_cast<double>(mxm));
    r.set("sim.apply_s", applyS);
    r.set("sim.combine_s", combineS);
    r.set("sim.measure_s", measureS);
    r.set("dd.recursive_mul_calls", static_cast<double>(mulCalls));
    r.set("dd.recursive_add_calls", static_cast<double>(addCalls));
    r.set("dd.identity_skips", static_cast<double>(identitySkips));
    r.set("dd.mul_cache_hits", static_cast<double>(mulHits));
    r.set("dd.mul_cache_misses", static_cast<double>(mulMisses));
    r.set("dd.gc_runs", static_cast<double>(gcRuns));
    r.set("dd.peak_nodes", static_cast<double>(peakNodes));
  }
};

/// Median wall time of constructing and destroying a dd::Package of
/// `qubits` qubits while `concurrency` threads do the same at once.
double packageSetupSeconds(std::size_t qubits, std::size_t concurrency) {
  constexpr int kRounds = 5;
  std::mutex mutex;
  std::vector<double> samples;
  parallelFor(concurrency, concurrency, [&](std::size_t) {
    for (int i = 0; i < kRounds; ++i) {
      const auto t0 = Clock::now();
      { const dd::Package pkg(qubits); }
      const double dt = since(t0);
      const std::lock_guard<std::mutex> lock(mutex);
      samples.push_back(dt);
    }
  });
  return median(samples);
}

/// Copy of \p circuit that measures every qubit at the end, unless it
/// already measures into classical bits.
std::shared_ptr<const ir::Circuit> measured(ir::Circuit circuit) {
  if (circuit.numClbits() > 0) {
    return std::make_shared<const ir::Circuit>(std::move(circuit));
  }
  ir::Circuit out(circuit.numQubits(), circuit.numQubits(), circuit.name());
  out.appendCircuit(circuit);
  out.measureAll();
  return std::make_shared<const ir::Circuit>(std::move(out));
}

std::shared_ptr<const ir::Circuit> registryCircuit(const std::string& name) {
  auto circuit = algo::makeBenchmark(name);
  if (!circuit) {
    throw std::runtime_error("unknown registry circuit " + name);
  }
  circuit->setName(name);
  return measured(std::move(*circuit));
}

sim::StrategyConfig strategy(const std::string& spec) {
  auto config = serve::parseStrategySpec(spec);
  if (!config) {
    throw std::runtime_error("bad strategy spec " + spec);
  }
  return *config;
}

/// The strategy mix of benchmarks/serve_manifest.txt.
const std::vector<std::string> kStrategyMix = {"seq", "k=4", "maxsize=4096",
                                               "adaptive"};

/// Frame codec time and bytes, summed over encode+decode round trips.
struct CodecTotals {
  double encodeS = 0.0;
  double decodeS = 0.0;
  std::uint64_t frameBytes = 0;

  template <typename Encode, typename Decode>
  void roundTrip(net::FrameType type, Encode encodePayload,
                 Decode decodePayload) {
    const auto t0 = Clock::now();
    const auto bytes = net::encodeFrame(net::Frame{type, encodePayload()});
    encodeS += since(t0);
    frameBytes += bytes.size();
    const auto t1 = Clock::now();
    decodePayload(net::decodeFrame(bytes).payload);
    decodeS += since(t1);
  }
  void add(const CodecTotals& o) {
    encodeS += o.encodeS;
    decodeS += o.decodeS;
    frameBytes += o.frameBytes;
  }
};

/// One in-process reference simulation of a served or routed job, with
/// the layer timings taken on its outputs. Every checkpoint it produces
/// is serialized, deserialized and round-tripped through a Checkpoint
/// frame as it is taken, and then dropped.
struct Reference {
  std::vector<bool> bits;
  sim::SimulationStats stats;
  sim::SimulationTrace trace;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpointBytes = 0;
  double serializeS = 0.0;
  double deserializeS = 0.0;
  double exportS = 0.0;
  CodecTotals codec;
  std::string error;
};

/// With \p layerDetail off the run only produces the reference bits:
/// checkpointing (outcome-neutral) and the step trace are switched off.
Reference referenceRun(const ir::Circuit& circuit, sim::StrategyConfig config,
                       std::uint64_t seed, bool layerDetail) {
  Reference ref;
  try {
    config.collectTrace = layerDetail;
    if (!layerDetail) {
      config.checkpointIntervalOps = 0;
    }
    sim::CircuitSimulator simulator(circuit, config, seed);
    if (config.checkpointIntervalOps > 0) {
      simulator.setCheckpointSink([&](const sim::Checkpoint& ckpt) {
        const auto t0 = Clock::now();
        auto blob = ckpt.serialize();
        ref.serializeS += since(t0);
        ++ref.checkpoints;
        ref.checkpointBytes += blob.size();
        const auto t1 = Clock::now();
        const auto back = sim::Checkpoint::deserialize(blob);
        ref.deserializeS += since(t1);
        if (back.seed != seed) {
          ref.error = "checkpoint round trip changed the seed";
        }
        ref.codec.roundTrip(
            net::FrameType::Checkpoint,
            [&] { return net::encodeCheckpoint({0, std::move(blob)}); },
            [](const auto& b) { (void)net::decodeCheckpoint(b); });
      });
    }
    auto result = simulator.run();
    const auto t0 = Clock::now();
    (void)dd::exportDD(simulator.package(), result.finalState);
    ref.exportS = since(t0);
    ref.bits = std::move(result.classicalBits);
    ref.stats = result.stats;
    ref.trace = std::move(result.trace);
  } catch (const std::exception& e) {
    ref.error = e.what();
  }
  return ref;
}

std::string bitsToString(const std::vector<bool>& bits) {
  std::string s;
  for (const bool b : bits) {
    s += b ? '1' : '0';
  }
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string workDir = ".";
};

/// Installs an obs::TraceCollector for the traced half of a --trace 1 run
/// and writes its Chrome trace when the phase ends.
class TracePhase {
 public:
  explicit TracePhase(const Options& opt) : path_(opt.workDir + "/trace.json") {}

  void begin() {
    collector_ = std::make_unique<obs::TraceCollector>();
    collector_->install();
  }
  /// Stop recording and export (no-op if begin() was not called). Call
  /// only after every traced thread has been joined: a worker may still be
  /// closing its span when the client sees the job's result.
  void end(Report& report) {
    if (!collector_) {
      return;
    }
    collector_->stop();
    std::ofstream out(path_);
    obs::writeChromeTrace(out, *collector_);
    out.close();
    report.set("obs.trace_events", static_cast<double>(collector_->eventCount()));
  }

 private:
  std::string path_;
  std::unique_ptr<obs::TraceCollector> collector_;
};

/// Time budget of the phases of one run. Untraced runs measure the whole
/// budget; traced runs split it between an untraced and a traced phase.
struct Phases {
  double untraced = 0.0;
  double traced = 0.0;
  explicit Phases(const Options& opt)
      : untraced(opt.trace ? opt.seconds / 2 : opt.seconds),
        traced(opt.trace ? opt.seconds / 2 : 0.0) {}
};

// ========================================================= paper_circuits

struct PaperCase {
  std::string name;
  std::shared_ptr<const ir::Circuit> circuit;
  sim::StrategyConfig winner;
  std::uint64_t simSeed = 0;
};

struct PaperInputs {
  std::vector<PaperCase> cases;
  std::uint64_t groverMarked = 0;
};

constexpr std::uint64_t kShorN = 253;
constexpr std::uint64_t kShorA = 16;
constexpr std::size_t kGroverQubits = 18;

PaperInputs makePaperInputs(std::uint64_t seed) {
  PaperInputs in;
  in.groverMarked = sim::deriveSeed(seed, 0) & ((1ULL << kGroverQubits) - 1);
  algo::GroverOptions groverOptions;
  groverOptions.measure = true;
  sim::StrategyConfig repeating;
  repeating.reuseRepeatedBlocks = true;
  in.cases.push_back({"grover_18",
                      std::make_shared<const ir::Circuit>(algo::makeGroverCircuit(
                          kGroverQubits, in.groverMarked, groverOptions)),
                      repeating, sim::deriveSeed(seed, 1)});
  in.cases.push_back(
      {"shor_253_16",
       std::make_shared<const ir::Circuit>(
           algo::makeShorBeauregardCircuit(kShorN, kShorA)),
       sim::StrategyConfig::maxSizeStrategy(256), sim::deriveSeed(seed, 2)});
  in.cases.push_back({"supremacy_4x4_12", registryCircuit("supremacy_4x4_12"),
                      sim::StrategyConfig::kOperations(32),
                      sim::deriveSeed(seed, 3)});
  return in;
}

/// Family-specific output check; empty when the bits are right.
std::string checkPaperOutput(const PaperInputs& in, const PaperCase& c,
                             const std::vector<bool>& bits) {
  if (c.name == "grover_18") {
    std::uint64_t value = 0;
    for (std::size_t q = 0; q < bits.size() && q < 64; ++q) {
      value |= static_cast<std::uint64_t>(bits[q]) << q;
    }
    if (bits.size() != kGroverQubits || value != in.groverMarked) {
      return "grover_18 measured " + std::to_string(value) + ", marked " +
             std::to_string(in.groverMarked);
    }
  } else if (c.name == "shor_253_16") {
    // The phase m/2^t must lie within a quarter cell of some s/r, r the
    // classically computed order. An exact simulation violates this with
    // probability 2.7e-4 (the sinc^2 tails of the phase-estimation
    // distribution); a uniformly random m passes half the time.
    const std::size_t t = 2 * algo::bitLength(kShorN);
    const auto r = algo::multiplicativeOrder(kShorA, kShorN);
    if (!r || bits.size() < t) {
      return "shor_253_16: no order or too few phase bits";
    }
    const std::uint64_t m = algo::shorMeasuredValue(bits, t);
    const double cells = static_cast<double>(m) * static_cast<double>(*r) /
                         std::ldexp(1.0, static_cast<int>(t));
    if (std::abs(cells - std::round(cells)) > 0.25) {
      return "shor_253_16 phase " + std::to_string(m) +
             " is inconsistent with order " + std::to_string(*r);
    }
  }
  return {};
}

struct PaperPhase {
  std::vector<double> passSeconds;
  std::vector<double> latencies;
  double wall = 0.0;
  std::size_t sims = 0;
  SimTotals totals;
};

/// Passes until \p budget is spent; at least \p minPasses.
PaperPhase runPaperPhase(const PaperInputs& in, double budget,
                         std::size_t minPasses, Report& report) {
  PaperPhase phase;
  const auto start = Clock::now();
  do {
    const auto passStart = Clock::now();
    for (const auto& c : in.cases) {
      std::vector<bool> baselineBits;
      for (int row = 0; row < 2; ++row) {
        const sim::StrategyConfig config =
            row == 0 ? sim::StrategyConfig{} : c.winner;
        report.attempt();
        ++phase.sims;
        const auto t0 = Clock::now();
        try {
          sim::DetachedResult result;
          {
            const obs::ScopedSpan span("sim.simulate", kBenchCat);
            result = sim::simulate(*c.circuit, config, c.simSeed);
          }
          const double dt = since(t0);
          phase.latencies.push_back(dt);
          phase.totals.runS += result.stats.wallSeconds;
          phase.totals.overheadS += dt - result.stats.wallSeconds;
          phase.totals.addCounters(result.stats);
          report.checkRates(result.stats);
          std::string why = checkPaperOutput(in, c, result.classicalBits);
          if (row == 0) {
            baselineBits = result.classicalBits;
          } else if (why.empty() && result.classicalBits != baselineBits) {
            why = c.name + ": winning strategy disagrees with the default";
          }
          if (!why.empty()) {
            report.fail(why);
          }
        } catch (const std::exception& e) {
          phase.latencies.push_back(since(t0));
          report.fail(c.name + ": " + e.what());
        }
      }
    }
    phase.passSeconds.push_back(since(passStart));
  } while (phase.passSeconds.size() < minPasses || since(start) < budget);
  phase.wall = since(start);
  return phase;
}

/// Step times (sim.apply_s/combine_s/measure_s) of one pass, from reference
/// runs that keep the SimulationTrace sim::simulate drops. Run outside the
/// timed phases, so both halves of a traced run make the same calls.
void addPaperStepTimes(const PaperInputs& in, SimTotals& totals) {
  for (const auto& c : in.cases) {
    for (int row = 0; row < 2; ++row) {
      sim::StrategyConfig config = row == 0 ? sim::StrategyConfig{} : c.winner;
      config.collectTrace = true;
      sim::CircuitSimulator simulator(*c.circuit, config, c.simSeed);
      totals.addTrace(simulator.run().trace);
    }
  }
}

void runPaperCircuits(const Options& opt, Report& report) {
  const std::function<std::unique_ptr<PaperInputs>()> setUp = [&] {
    return std::make_unique<PaperInputs>(makePaperInputs(opt.seed));
  };
  SetupTimer setups;
  const auto inputs = setups.round(setUp);

  const Phases phases(opt);
  // Two passes at least, so wall_s is never a single sample.
  const std::uint64_t switchesBefore = involuntarySwitches();
  PaperPhase main =
      runPaperPhase(*inputs, phases.untraced, opt.trace ? 1 : 2, report);
  report.set("sched.preemptions_per_job",
             static_cast<double>(involuntarySwitches() - switchesBefore) /
                 static_cast<double>(main.sims));
  report.set("peak_rss_mb", peakRssMb());
  report.set("wall_s", median(main.passSeconds));
  report.set("jobs_per_s", static_cast<double>(main.sims) / main.wall);
  report.set("latency_p50_s", quantile(main.latencies, 0.5));
  report.set("latency_p90_s", quantile(main.latencies, 0.9));
  report.set("samples.latency", static_cast<double>(main.latencies.size()));

  if (opt.trace) {
    TracePhase trace(opt);
    trace.begin();
    PaperPhase traced;
    {
      const obs::ScopedSpan root("bench.timed", kBenchCat);
      traced = runPaperPhase(*inputs, phases.traced, 1, report);
    }
    trace.end(report);
    addPaperStepTimes(*inputs, traced.totals);
    report.set("obs.traced_wall_s", traced.wall);
    report.set("obs.trace_overhead_ratio",
               (traced.wall / static_cast<double>(traced.sims)) /
                   (main.wall / static_cast<double>(main.sims)));
    traced.totals.addTo(report);
  }

  std::size_t widest = 0;
  for (const auto& c : inputs->cases) {
    widest = std::max(widest, c.circuit->numQubits());
  }
  report.set("dd.package_setup_s", packageSetupSeconds(widest, 1));
  (void)setups.round(setUp);
  setups.report(report);
}

// ============================================================ serve_batch

/// Files under benchmarks/ that the serving workload replays.
const std::vector<std::string> kQasmFiles = {
    "adder_3_plus_5.qasm", "bell.qasm", "ghz_8.qasm", "grover_5.qasm",
    "qft_4.qasm"};

struct ServeJob {
  std::size_t circuit = 0;
  std::size_t strategyIndex = 0;
  std::uint64_t seed = 0;
  /// Index of the earlier job this one repeats exactly, if any.
  std::optional<std::size_t> repeatOf;
};

struct ServeInputs {
  std::vector<std::shared_ptr<const ir::Circuit>> circuits;
  std::vector<sim::StrategyConfig> strategies;
  double parseS = 0.0;
};

ServeInputs makeServeInputs(const Options& opt) {
  ServeInputs in;
  for (const auto& file : kQasmFiles) {
    const std::string path = opt.root + "/benchmarks/" + file;
    const auto t0 = Clock::now();
    ir::Circuit circuit = ir::parseQasmFile(path);
    in.parseS += since(t0);
    circuit.setName(file);
    in.circuits.push_back(measured(std::move(circuit)));
  }
  // 8-14 qubits. qft_10/qft_12, qpe_11+ and qaoa_10+ are left out: under
  // maxsize=4096 they take 0.6-70 s, which would turn this set-up-bound
  // workload into a kernel-bound one.
  for (const std::size_t n : {8U, 10U, 12U, 14U}) {
    const std::string s = std::to_string(n);
    for (const auto& name : {"ghz_" + s, "bv_" + s, "wstate_" + s}) {
      in.circuits.push_back(registryCircuit(name));
    }
  }
  for (const auto& name :
       {"qft_8", "qft_14", "qpe_7", "qpe_9", "qaoa_8_1", "grover_8", "grover_9"}) {
    in.circuits.push_back(registryCircuit(name));
  }
  for (const auto& spec : kStrategyMix) {
    in.strategies.push_back(strategy(spec));
  }
  return in;
}

/// Jobs are drawn from the seed: a random circuit and strategy with a
/// fresh derived seed, or — one time in five — an exact repeat of one of
/// the previous 32 jobs (a result-cache hit, or coalesced if in flight).
ServeJob nextServeJob(std::mt19937_64& rng, const ServeInputs& in,
                      const std::vector<ServeJob>& history,
                      std::uint64_t baseSeed) {
  const std::size_t index = history.size();
  if (index > 0 && rng() % 5 == 0) {
    const std::size_t window = std::min<std::size_t>(index, 32);
    const std::size_t of = index - 1 - rng() % window;
    ServeJob job = history[of];
    job.repeatOf = history[of].repeatOf.value_or(of);
    return job;
  }
  ServeJob job;
  job.circuit = rng() % in.circuits.size();
  job.strategyIndex = rng() % in.strategies.size();
  job.seed = sim::deriveSeed(baseSeed, index);
  return job;
}

/// What the benchmark keeps of one served job. It is small (no
/// SimulationStats), so the history of a run adds little to peak_rss_mb
/// however many jobs the timed phase finishes.
struct ServeOutcome {
  /// Empty when the job completed or was answered from the cache;
  /// otherwise why it failed ("admission queue full" when trySubmit
  /// refused it).
  std::string error;
  std::vector<bool> bits;
  bool simulated = false;  ///< ran a simulation (no cache hit, not coalesced)
  double runSeconds = 0.0;
  double simSeconds = 0.0;  ///< SimulationStats::wallSeconds
};

struct ServePhase {
  std::vector<double> manifestSeconds;
  std::vector<double> latencies;
  std::vector<double> queue;
  std::vector<double> exec;
  double wall = 0.0;
  double submitS = 0.0;
  std::size_t firstJob = 0;
  std::size_t endJob = 0;
};

constexpr std::size_t kServeManifestJobs = 128;

ServePhase runServePhase(serve::SimulationService& service,
                         const ServeInputs& in, double budget,
                         std::uint64_t baseSeed, std::mt19937_64& rng,
                         std::vector<ServeJob>& jobs,
                         std::vector<ServeOutcome>& outcomes) {
  ServePhase phase;
  phase.firstJob = jobs.size();
  const auto start = Clock::now();
  do {
    const obs::ScopedSpan manifestSpan("serve.manifest", kBenchCat);
    const auto manifestStart = Clock::now();
    // A manifest (128 jobs) never fills the admission queue (256 by
    // default), so trySubmit refuses a job only if the service is broken;
    // such a job counts as failed, as in ddsim_serve.
    std::vector<std::optional<serve::JobHandle>> handles;
    for (std::size_t i = 0; i < kServeManifestJobs; ++i) {
      jobs.push_back(nextServeJob(rng, in, jobs, baseSeed));
      const ServeJob& job = jobs.back();
      serve::JobSpec spec;
      spec.circuit = in.circuits[job.circuit];
      spec.config = in.strategies[job.strategyIndex];
      spec.seed = job.seed;
      const auto t0 = Clock::now();
      {
        const obs::ScopedSpan span("serve.submit", kBenchCat);
        handles.push_back(service.trySubmit(std::move(spec)));
      }
      phase.submitS += since(t0);
    }
    for (const auto& handle : handles) {
      ServeOutcome outcome;
      if (!handle) {
        outcome.error = "admission queue full";
        outcomes.push_back(std::move(outcome));
        continue;
      }
      const serve::JobResult* result = nullptr;
      {
        const obs::ScopedSpan span("serve.wait", kBenchCat);
        result = &handle->wait();
      }
      phase.latencies.push_back(result->queueSeconds + result->runSeconds);
      phase.queue.push_back(result->queueSeconds);
      if (result->status == serve::JobStatus::Completed ||
          result->status == serve::JobStatus::Cached) {
        outcome.bits = result->classicalBits;
      } else {
        outcome.error =
            serve::statusName(result->status) + ": " + result->error;
      }
      if (result->status == serve::JobStatus::Completed && !result->fromCache &&
          !result->coalesced) {
        outcome.simulated = true;
        outcome.runSeconds = result->runSeconds;
        outcome.simSeconds = result->stats.wallSeconds;
        phase.exec.push_back(result->runSeconds);
      }
      outcomes.push_back(std::move(outcome));
    }
    phase.manifestSeconds.push_back(since(manifestStart));
  } while (since(start) < budget);
  phase.wall = since(start);
  phase.endJob = jobs.size();
  return phase;
}

/// Check every job against an in-process simulation of the same
/// (circuit, config, seed), and every repeat against its original.
/// \p bitsOf returns a job's bits, or reports the job failed and returns
/// nothing. Layer counters are summed over the distinct jobs in
/// [countFrom, countEnd).
template <typename Job, typename BitsOf, typename CircuitOf, typename ConfigOf>
void verifyJobs(const std::vector<Job>& jobs, std::size_t countFrom,
                std::size_t countEnd, BitsOf bitsOf, CircuitOf circuitOf,
                ConfigOf configOf, bool layerDetail, Report& report,
                SimTotals& totals, std::vector<Reference>* refsOut) {
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].repeatOf) {
      distinct.push_back(i);
    }
  }
  std::vector<Reference> refs(jobs.size());
  parallelFor(distinct.size(), cpuCount(), [&](std::size_t k) {
    const std::size_t i = distinct[k];
    refs[i] = referenceRun(*circuitOf(jobs[i]), configOf(jobs[i]),
                           jobs[i].seed,
                           layerDetail && i >= countFrom && i < countEnd);
  });
  std::vector<std::optional<std::vector<bool>>> bits(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bits[i] = bitsOf(i);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t original = jobs[i].repeatOf.value_or(i);
    const Reference& ref = refs[original];
    if (!ref.error.empty()) {
      report.fail("job " + std::to_string(i) + " reference: " + ref.error);
    } else if (bits[i] && *bits[i] != ref.bits) {
      report.fail("job " + std::to_string(i) + " returned " +
                  bitsToString(*bits[i]) + ", in-process simulation gives " +
                  bitsToString(ref.bits));
    } else if (bits[i] && bits[original] && *bits[original] != *bits[i]) {
      report.fail("repeat job " + std::to_string(i) +
                  " differs from its original");
    }
    if (!jobs[i].repeatOf && i >= countFrom && i < countEnd) {
      totals.addCounters(ref.stats);
      totals.addTrace(ref.trace);
      report.checkRates(ref.stats);
    }
  }
  if (refsOut != nullptr) {
    *refsOut = std::move(refs);
  }
}

/// One set-up of serve_batch: the inputs and a service spilling to its
/// own directory, which is removed with it.
struct ServeSetup {
  ServeInputs inputs;
  std::string cacheDir;
  std::unique_ptr<serve::SimulationService> service;

  ServeSetup() = default;
  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;
  ~ServeSetup() {
    if (service) {
      service->shutdown();
      service.reset();
    }
    std::error_code ignored;
    std::filesystem::remove_all(cacheDir, ignored);
  }
};

void runServeBatch(const Options& opt, Report& report) {
  const std::size_t workers = cpuCount();
  std::size_t spills = 0;
  const std::function<std::unique_ptr<ServeSetup>()> setUp = [&] {
    auto next = std::make_unique<ServeSetup>();
    next->inputs = makeServeInputs(opt);
    next->cacheDir = opt.workDir + "/spill-" + std::to_string(spills++);
    serve::ServiceConfig config;
    config.workers = workers;
    config.cacheDir = next->cacheDir;
    next->service = std::make_unique<serve::SimulationService>(config);
    return next;
  };
  SetupTimer setups;
  const auto setup = setups.round(setUp);
  const ServeInputs* const inputs = &setup->inputs;
  auto& service = setup->service;

  const Phases phases(opt);
  std::mt19937_64 rng(sim::deriveSeed(opt.seed, 0xbe7c4));
  std::vector<ServeJob> jobs;
  std::vector<ServeOutcome> outcomes;
  // One untimed manifest first, so allocator and page-cache warm-up of a
  // fresh process is not charged to the service.
  (void)runServePhase(*service, *inputs, 0.0, opt.seed, rng, jobs, outcomes);
  const std::uint64_t switchesBefore = involuntarySwitches();
  ServePhase main =
      runServePhase(*service, *inputs, phases.untraced, opt.seed, rng, jobs,
                    outcomes);
  report.set("sched.preemptions_per_job",
             static_cast<double>(involuntarySwitches() - switchesBefore) /
                 static_cast<double>(main.endJob - main.firstJob));
  report.set("peak_rss_mb", peakRssMb());
  report.set("wall_s", median(main.manifestSeconds));
  report.set("jobs_per_s",
             static_cast<double>(main.endJob - main.firstJob) / main.wall);
  report.set("latency_p50_s", quantile(main.latencies, 0.5));
  report.set("latency_p90_s", quantile(main.latencies, 0.9));
  report.set("samples.latency", static_cast<double>(main.latencies.size()));

  ServePhase measured = main;
  TracePhase trace(opt);
  if (opt.trace) {
    trace.begin();
    {
      const obs::ScopedSpan root("bench.timed", kBenchCat);
      measured = runServePhase(*service, *inputs, phases.traced, opt.seed,
                               rng, jobs, outcomes);
    }
    report.set("obs.traced_wall_s", measured.wall);
    const double tracedPerJob =
        measured.wall / static_cast<double>(measured.endJob - measured.firstJob);
    const double untracedPerJob =
        main.wall / static_cast<double>(main.endJob - main.firstJob);
    report.set("obs.trace_overhead_ratio", tracedPerJob / untracedPerJob);
  }
  service->shutdown();
  trace.end(report);
  const serve::ServiceStats stats = service->stats();
  service.reset();
  std::filesystem::remove_all(setup->cacheDir);
  report.attempt(jobs.size());

  // Layer figures of the measured phase (the traced one in traced runs).
  SimTotals totals;
  for (std::size_t i = measured.firstJob; i < measured.endJob; ++i) {
    const ServeOutcome& o = outcomes[i];
    if (o.simulated) {
      totals.runS += o.simSeconds;
      totals.overheadS += o.runSeconds - o.simSeconds;
    }
  }
  double hashS = 0.0;
  for (std::size_t i = measured.firstJob; i < measured.endJob; ++i) {
    const auto t0 = Clock::now();
    (void)ir::contentHash(*inputs->circuits[jobs[i].circuit]);
    hashS += since(t0);
  }
  report.set("ir.parse_s", inputs->parseS);
  report.set("ir.content_hash_s", hashS);
  report.set("serve.submit_s", measured.submitS);
  report.set("serve.queue_p50_s", quantile(measured.queue, 0.5));
  report.set("serve.queue_p90_s", quantile(measured.queue, 0.9));
  report.set("serve.exec_p50_s", quantile(measured.exec, 0.5));
  report.set("serve.exec_p90_s", quantile(measured.exec, 0.9));
  report.set("serve.simulations_run", static_cast<double>(stats.simulationsRun));
  report.set("serve.cache_hits", static_cast<double>(stats.cache.hits));
  report.set("serve.coalesced", static_cast<double>(stats.coalesced));
  report.set("serve.spill_appended", static_cast<double>(stats.spill.appended));
  report.set("serve.jobs", static_cast<double>(jobs.size()));
  report.set("sim.checkpoints", static_cast<double>(stats.checkpointsTaken));
  report.set("dd.package_setup_s", packageSetupSeconds(12, workers));

  verifyJobs(
      jobs, measured.firstJob, measured.endJob,
      [&](std::size_t i) -> std::optional<std::vector<bool>> {
        const ServeOutcome& o = outcomes[i];
        if (!o.error.empty()) {
          report.fail("job " + std::to_string(i) + " ended " + o.error);
          return std::nullopt;
        }
        return o.bits;
      },
      [&](const ServeJob& j) { return inputs->circuits[j.circuit]; },
      [&](const ServeJob& j) { return inputs->strategies[j.strategyIndex]; },
      opt.trace, report, totals, nullptr);
  totals.addTo(report);
  (void)setups.round(setUp);
  setups.report(report);
}

// ============================================================ router_ckpt

/// One job per family; grover_14 is the heaviest.
const std::vector<std::string> kRouterFamilies = {
    "ghz_12", "bv_12",    "qft_14",    "wstate_10",
    "qpe_9",  "qaoa_8_1", "grover_14", "supremacy_3x3_6"};

/// The serving mix without maxsize=4096, which takes 18 s on grover_14.
const std::vector<std::string> kRouterStrategies = {"seq", "k=4", "adaptive"};

constexpr std::size_t kRouterWorkers = 2;
constexpr std::size_t kWorkersPerServer = 2;

struct RouterInputs {
  std::vector<std::string> qasm;  ///< per family
  std::vector<sim::StrategyConfig> strategies;
};

RouterInputs makeRouterInputs() {
  RouterInputs in;
  for (const auto& name : kRouterFamilies) {
    in.qasm.push_back(ir::toQasm(*registryCircuit(name)));
  }
  for (const auto& spec : kRouterStrategies) {
    auto config = strategy(spec);
    config.checkpointIntervalOps = 1;
    in.strategies.push_back(config);
  }
  return in;
}

struct Cluster {
  std::vector<std::unique_ptr<net::WorkerServer>> servers;
  std::unique_ptr<router::Router> router;

  Cluster() {
    router::RouterConfig config;
    for (std::size_t i = 0; i < kRouterWorkers; ++i) {
      serve::ServiceConfig service;
      service.workers = kWorkersPerServer;
      servers.push_back(std::make_unique<net::WorkerServer>(service, 0));
      config.workers.push_back("127.0.0.1:" +
                               std::to_string(servers.back()->port()));
    }
    router = std::make_unique<router::Router>(config);
    router->connect();
  }
  ~Cluster() {
    router->shutdown();
    for (auto& server : servers) {
      server->requestStop();
    }
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
};

struct RoutedJob {
  std::size_t family = 0;
  std::size_t strategyIndex = 0;
  std::uint64_t seed = 0;
  std::optional<std::size_t> repeatOf;  ///< always empty: seeds are distinct
};

struct RouterPhase {
  std::vector<double> roundSeconds;
  std::vector<double> manifestSeconds;
  std::vector<double> overheads;
  double wall = 0.0;
  std::size_t firstJob = 0;
  std::size_t endJob = 0;
};

constexpr std::size_t kRouterManifestJobs = 8;
/// Family f of manifest m runs strategy (f + m) mod 3, so every round of
/// three manifests carries the same work whatever the seed; the seed only
/// picks the simulation seeds. wall_s on router_ckpt is the median round.
constexpr std::size_t kRouterRoundManifests = 3;

/// Route one 8-job manifest, one job per family, each with a fresh seed.
void runManifest(router::Router& router, const RouterInputs& in,
                 std::uint64_t baseSeed, std::vector<RoutedJob>& jobs,
                 std::vector<router::RouterResult>& results,
                 RouterPhase& phase) {
  std::vector<router::RouterJob> manifest;
  for (std::size_t f = 0; f < kRouterManifestJobs; ++f) {
    RoutedJob job;
    job.family = f % in.qasm.size();
    job.strategyIndex = (f + jobs.size() / kRouterManifestJobs) %
                        in.strategies.size();
    job.seed = sim::deriveSeed(baseSeed, jobs.size());
    jobs.push_back(job);
    router::RouterJob rj;
    rj.label = kRouterFamilies[job.family];
    rj.qasm = in.qasm[job.family];
    rj.config = in.strategies[job.strategyIndex];
    rj.seed = job.seed;
    manifest.push_back(std::move(rj));
  }
  const auto t0 = Clock::now();
  std::vector<router::RouterResult> out;
  {
    const obs::ScopedSpan span("router.manifest", kBenchCat);
    out = router.run(manifest);
  }
  const double latency = since(t0);
  double slowest = 0.0;
  for (const auto& r : out) {
    slowest = std::max(slowest, r.payload.queueSeconds + r.payload.runSeconds);
  }
  phase.manifestSeconds.push_back(latency);
  phase.overheads.push_back(latency - slowest);
  for (auto& r : out) {
    results.push_back(std::move(r));
  }
}

/// Rounds of kRouterRoundManifests manifests until \p budget is spent
/// (at least one round).
RouterPhase runRouterPhase(router::Router& router, const RouterInputs& in,
                           double budget, std::uint64_t baseSeed,
                           std::vector<RoutedJob>& jobs,
                           std::vector<router::RouterResult>& results) {
  RouterPhase phase;
  phase.firstJob = jobs.size();
  const auto start = Clock::now();
  do {
    const auto roundStart = Clock::now();
    for (std::size_t m = 0; m < kRouterRoundManifests; ++m) {
      runManifest(router, in, baseSeed, jobs, results, phase);
    }
    phase.roundSeconds.push_back(since(roundStart));
  } while (since(start) < budget);
  phase.wall = since(start);
  phase.endJob = jobs.size();
  return phase;
}

void setSchedPolicy(int policy) {
  const sched_param param{};
  if (sched_setscheduler(0, policy, &param) != 0) {
    throw std::runtime_error(std::string("sched_setscheduler: ") +
                             std::strerror(errno));
  }
}

/// One set-up of router_ckpt: the inputs and a connected cluster.
struct RouterSetup {
  RouterInputs inputs;
  std::unique_ptr<Cluster> cluster;
};

/// router_ckpt runs under SCHED_BATCH, which threads inherit when they
/// start. Under SCHED_OTHER, the policy ddsim_serve and ddsim_router run
/// under, this workload is bimodal from one process to the next: in the
/// slow mode the wakeups of checkpoint frames preempt the streaming
/// worker (about 20k involuntary context switches per round instead of
/// under 1k) and rounds take about 40% longer. SCHED_BATCH turns off wakeup
/// preemption, so every run measures the fast mode; traced runs measure
/// one round under SCHED_OTHER as well (router.round_s_deployed).
void runRouterCkpt(const Options& opt, Report& report) {
  setSchedPolicy(SCHED_BATCH);
  const std::function<std::unique_ptr<RouterSetup>()> setUp = [] {
    auto next = std::make_unique<RouterSetup>();
    next->inputs = makeRouterInputs();
    for (const auto& text : next->inputs.qasm) {
      (void)ir::parseQasm(text);  // what every worker does per job
    }
    next->cluster = std::make_unique<Cluster>();
    return next;
  };
  SetupTimer setups;
  auto setup = setups.round(setUp);
  const RouterInputs* const inputs = &setup->inputs;
  auto& cluster = setup->cluster;

  const Phases phases(opt);
  std::vector<RoutedJob> jobs;
  std::vector<router::RouterResult> results;
  // One untimed round first (process warm-up, see runServeBatch).
  (void)runRouterPhase(*cluster->router, *inputs, 0.0, opt.seed, jobs,
                       results);
  router::RouterCounters before = cluster->router->counters();
  const std::uint64_t switchesBefore = involuntarySwitches();
  RouterPhase main = runRouterPhase(*cluster->router, *inputs, phases.untraced,
                                    opt.seed, jobs, results);
  report.set("sched.preemptions_per_job",
             static_cast<double>(involuntarySwitches() - switchesBefore) /
                 static_cast<double>(main.endJob - main.firstJob));
  report.set("peak_rss_mb", peakRssMb());
  report.set("wall_s", median(main.roundSeconds));
  report.set("jobs_per_s",
             static_cast<double>(main.endJob - main.firstJob) / main.wall);
  report.set("latency_p50_s", quantile(main.manifestSeconds, 0.5));
  report.set("latency_p90_s", quantile(main.manifestSeconds, 0.9));
  report.set("samples.latency", static_cast<double>(main.manifestSeconds.size()));

  RouterPhase measured = main;
  TracePhase trace(opt);
  if (opt.trace) {
    before = cluster->router->counters();
    trace.begin();
    {
      const obs::ScopedSpan root("bench.timed", kBenchCat);
      measured = runRouterPhase(*cluster->router, *inputs, phases.traced,
                                opt.seed, jobs, results);
    }
    report.set("obs.traced_wall_s", measured.wall);
    const double tracedPerJob =
        measured.wall / static_cast<double>(measured.endJob - measured.firstJob);
    const double untracedPerJob =
        main.wall / static_cast<double>(main.endJob - main.firstJob);
    report.set("obs.trace_overhead_ratio", tracedPerJob / untracedPerJob);
  }
  const router::RouterCounters counters = cluster->router->counters();
  serve::ServiceStats merged;
  for (const auto& server : cluster->servers) {
    serve::mergeStats(merged, server->stats());
  }
  cluster.reset();
  trace.end(report);

  if (opt.trace) {
    // One round on a fresh cluster whose threads, like the client, run
    // under the deployed policy. Its jobs are verified with the others.
    setSchedPolicy(SCHED_OTHER);
    {
      const Cluster deployed;
      const std::uint64_t switches = involuntarySwitches();
      const RouterPhase round = runRouterPhase(*deployed.router, *inputs, 0.0,
                                               opt.seed, jobs, results);
      report.set("router.round_s_deployed", round.wall);
      report.set("sched.preemptions_per_job_deployed",
                 static_cast<double>(involuntarySwitches() - switches) /
                     static_cast<double>(round.endJob - round.firstJob));
    }
    setSchedPolicy(SCHED_BATCH);
  }
  report.attempt(jobs.size());

  report.set("router.overhead_p50_s", quantile(measured.overheads, 0.5));
  report.set("router.rerouted", static_cast<double>(counters.rerouted));
  report.set("router.rejections", static_cast<double>(counters.rejectionsReceived));
  report.set("router.lost_jobs", static_cast<double>(counters.lostJobs));
  // Frames of the measured phase only, like the other layer figures.
  report.set("net.checkpoint_frames",
             static_cast<double>(counters.checkpointsReceived -
                                 before.checkpointsReceived));
  report.set("serve.simulations_run", static_cast<double>(merged.simulationsRun));
  report.set("serve.cache_hits", static_cast<double>(merged.cache.hits));
  report.set("serve.coalesced", static_cast<double>(merged.coalesced));
  report.set("serve.spill_appended", static_cast<double>(merged.spill.appended));
  report.set("serve.jobs", static_cast<double>(jobs.size()));

  std::vector<double> queue;
  std::vector<double> exec;
  SimTotals totals;
  for (std::size_t i = measured.firstJob; i < measured.endJob; ++i) {
    const auto& p = results[i].payload;
    queue.push_back(p.queueSeconds);
    exec.push_back(p.runSeconds);
    totals.runS += p.stats.wallSeconds;
    totals.overheadS += p.runSeconds - p.stats.wallSeconds;
  }
  report.set("serve.queue_p50_s", quantile(queue, 0.5));
  report.set("serve.queue_p90_s", quantile(queue, 0.9));
  report.set("serve.exec_p50_s", quantile(exec, 0.5));
  report.set("serve.exec_p90_s", quantile(exec, 0.9));
  report.set("dd.package_setup_s",
             packageSetupSeconds(12, kRouterWorkers * kWorkersPerServer));

  // Client-side parse and hash of every measured job's QASM text, timed
  // once per family and charged once per job of that family.
  std::vector<std::size_t> perFamily(inputs->qasm.size(), 0);
  for (std::size_t i = measured.firstJob; i < measured.endJob; ++i) {
    ++perFamily[jobs[i].family];
  }
  double parseS = 0.0;
  double hashS = 0.0;
  std::vector<std::shared_ptr<const ir::Circuit>> parsed;
  for (std::size_t f = 0; f < inputs->qasm.size(); ++f) {
    const auto t0 = Clock::now();
    parsed.push_back(
        std::make_shared<const ir::Circuit>(ir::parseQasm(inputs->qasm[f])));
    const double dt = since(t0);
    const auto t1 = Clock::now();
    (void)ir::contentHash(*parsed.back());
    const double dh = since(t1);
    parseS += dt * static_cast<double>(perFamily[f]);
    hashS += dh * static_cast<double>(perFamily[f]);
  }
  report.set("ir.parse_s", parseS);
  report.set("ir.content_hash_s", hashS);

  std::vector<Reference> refs;
  verifyJobs(
      jobs, measured.firstJob, measured.endJob,
      [&](std::size_t i) -> std::optional<std::vector<bool>> {
        const auto& r = results[i];
        const std::uint8_t completed = net::wireStatus(serve::JobStatus::Completed);
        const std::uint8_t cached = net::wireStatus(serve::JobStatus::Cached);
        if (r.lost || (r.payload.status != completed && r.payload.status != cached)) {
          report.fail("routed job " + std::to_string(i) + " ended " +
                      (r.lost ? std::string("lost")
                              : net::wireStatusName(r.payload.status)) +
                      ": " + r.payload.error);
          return std::nullopt;
        }
        return r.payload.classicalBits;
      },
      [&](const RoutedJob& j) { return parsed[j.family]; },
      [&](const RoutedJob& j) { return inputs->strategies[j.strategyIndex]; },
      opt.trace, report, totals, &refs);
  totals.addTo(report);

  // Checkpoint and frame codecs, timed on this run's own payloads.
  double serializeS = 0.0;
  double deserializeS = 0.0;
  double exportS = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpointBytes = 0;
  CodecTotals codec;
  for (std::size_t i = measured.firstJob; i < measured.endJob; ++i) {
    const Reference& ref = refs[i];
    serializeS += ref.serializeS;
    deserializeS += ref.deserializeS;
    exportS += ref.exportS;
    checkpoints += ref.checkpoints;
    checkpointBytes += ref.checkpointBytes;
    codec.add(ref.codec);
    net::SubmitPayload submit;
    submit.jobId = i;
    submit.label = kRouterFamilies[jobs[i].family];
    submit.qasm = inputs->qasm[jobs[i].family];
    submit.config = inputs->strategies[jobs[i].strategyIndex];
    submit.seed = jobs[i].seed;
    codec.roundTrip(
        net::FrameType::Submit, [&] { return net::encodeSubmit(submit); },
        [](const auto& b) { (void)net::decodeSubmit(b); });
    codec.roundTrip(
        net::FrameType::Result,
        [&] { return net::encodeResult(results[i].payload); },
        [](const auto& b) { (void)net::decodeResult(b); });
  }
  const double measuredJobs =
      static_cast<double>(measured.endJob - measured.firstJob);
  report.set("sim.checkpoints", static_cast<double>(checkpoints));
  report.set("sim.checkpoint_bytes", static_cast<double>(checkpointBytes));
  report.set("sim.checkpoint_serialize_s", serializeS);
  report.set("sim.checkpoint_deserialize_s", deserializeS);
  report.set("dd.export_s", exportS);
  report.set("net.encode_s", codec.encodeS);
  report.set("net.decode_s", codec.decodeS);
  report.set("net.bytes_per_job",
             static_cast<double>(codec.frameBytes) / measuredJobs);
  setup.reset();
  (void)setups.round(setUp);
  setups.report(report);
}

// ===================================================================== main

std::string schedPolicyName() {
  switch (sched_getscheduler(0)) {
    case SCHED_OTHER: return "SCHED_OTHER";
    case SCHED_BATCH: return "SCHED_BATCH";
    case SCHED_IDLE: return "SCHED_IDLE";
    case SCHED_FIFO: return "SCHED_FIFO";
    case SCHED_RR: return "SCHED_RR";
    default: return "unknown";
  }
}

std::string provenanceJson() {
  std::ostringstream os;
  os << "{\"nproc\": " << cpuCount()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << jsonEscape(PERFBENCH_BUILD_TYPE)
     << "\", \"sched_policy\": \"" << schedPolicyName() << "\"}";
  return os.str();
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--root") {
      opt.root = value;
    } else if (key == "--work-dir") {
      opt.workDir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (opt.seconds <= 0.0 || !std::isfinite(opt.seconds)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parseArgs(argc, argv);
    std::filesystem::create_directories(opt.workDir);
    Report report;
    if (opt.workload == "paper_circuits") {
      runPaperCircuits(opt, report);
    } else if (opt.workload == "serve_batch") {
      runServeBatch(opt, report);
    } else if (opt.workload == "router_ckpt") {
      runRouterCkpt(opt, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    report.set("obs.rates_out_of_range",
               static_cast<double>(report.rateFlagCount()));
    report.note("provenance", provenanceJson());
    std::printf("%s\n", report.toJson().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
