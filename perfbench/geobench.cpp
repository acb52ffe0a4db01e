// The repo benchmark: runs one named workload against the public
// library API, checks its outputs, and prints every metric by name and unit.
//
//   geobench --workload NAME --seed N --seconds S --trace 0|1
//            [--out-dir DIR] [--state-dir DIR] [--git-sha SHA] [--source-sha SHA]
//
// Workloads (README.md beside this file says why each was chosen):
//   cold_mesh2d      32 × gen::delaunay2d of 125k points, k=64, 4 simulated ranks × 1 thread
//   churn_serve      PartitionService<2> over a Churn scenario (200k points,
//                    k=64) driven by an open-loop generator thread
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
// writes the recorded spans to DIR/<workload>-seed<N>.spans.json. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}. Any
// failed correctness or determinism check makes the exit code non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/geographer.hpp"
#include "gen/delaunay2d.hpp"
#include "graph/metrics.hpp"
#include "helpers.hpp"
#include "repart/scenarios.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "support/rng.hpp"

namespace {

using namespace geo;
using geobench::Clock;
using geobench::median;
using geobench::percentile;
using geobench::seconds;
using geobench::Tracer;

// ------------------------------------------------------------------ options

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
    std::string stateDir;
    std::string gitSha = "unknown";
    std::string sourceSha = "unknown";
};

Options parseOptions(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") o.workload = value;
        else if (arg == "--seed") o.seed = std::stoull(value);
        else if (arg == "--seconds") o.seconds = std::stod(value);
        else if (arg == "--trace") o.trace = std::stoi(value) != 0;
        else if (arg == "--out-dir") o.outDir = value;
        else if (arg == "--state-dir") o.stateDir = value;
        else if (arg == "--git-sha") o.gitSha = value;
        else if (arg == "--source-sha") o.sourceSha = value;
        else throw std::invalid_argument("unknown option " + arg);
    }
    if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    return o;
}

// ------------------------------------------------------------------- report

struct Metric {
    const char* name;
    const char* unit;
};

/// The end-to-end metrics every workload prints with --trace 0 (the names
/// BENCHMARK.json lists under "end_to_end"), in print order.
constexpr std::array kEndToEnd = {
    Metric{"setup_s", "s"},           Metric{"partition_s", "s"},
    Metric{"total_comm_volume", "count"}, Metric{"max_comm_volume", "count"},
    Metric{"peak_rss_bytes", "B"},    Metric{"route_p50_s", "s"},
    Metric{"staleness_p50_s", "s"},
};

/// The per-layer metrics every workload prints with --trace 1. A layer a
/// workload does not exercise, or cannot observe through the public API,
/// reads 0. run.py adds the tracing overhead, which takes two runs.
constexpr std::array kPerLayer = {
    Metric{"gen.mesh_s", "s"},
    Metric{"gen.churn_s", "s"},
    Metric{"setup.first_call_s", "s"},
    Metric{"sfc.keying_s", "s"},
    Metric{"sfc.keyed_points", "count"},
    Metric{"par.sort_s", "s"},
    Metric{"par.sorted_records", "count"},
    Metric{"par.comm.collectives", "count"},
    Metric{"par.comm.bytes", "B"},
    Metric{"par.comm.modeled_s", "s"},
    Metric{"par.wait_s", "s"},
    Metric{"core.kmeans_s", "s"},
    Metric{"core.update_s", "s"},
    Metric{"core.outer_iterations", "count"},
    Metric{"core.balance_iterations", "count"},
    Metric{"core.assign_s", "s"},
    Metric{"core.distance_calcs", "count"},
    Metric{"core.batched_distance_calcs", "count"},
    Metric{"core.skip_fraction", "ratio"},
    Metric{"core.assign_ns_per_distance", "ns"},
    Metric{"core.peak_tile_bytes", "B"},
    Metric{"core.spilled_tiles", "count"},
    Metric{"partition.unaccounted_s", "s"},
    Metric{"graph.evaluate_s", "s"},
    Metric{"repart.warm_s", "s"},
    Metric{"serve.publish_s", "s"},
    Metric{"serve.publish_interval_s", "s"},
    Metric{"serve.route_s", "s"},
    Metric{"serve.route_p90_s", "s"},
    Metric{"serve.route_p99_s", "s"},
    Metric{"serve.route_samples", "count"},
    Metric{"serve.queue_wait_s", "s"},
    Metric{"serve.misroute_frac", "ratio"},
    Metric{"serve.published_epochs", "count"},
    Metric{"serve.repartition_attempts", "count"},
    Metric{"serve.shed", "count"},
    Metric{"serve.backpressure_waits", "count"},
    Metric{"loadgen.late_max_s", "s"},
    Metric{"reps", "count"},
    Metric{"failed_frac", "ratio"},
    Metric{"trace.spans", "count"},
};

/// Everything one run produces: metric values by name, the operation
/// tally, the failed checks, and the numbers that must repeat exactly at
/// one seed.
struct Report {
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    std::map<std::string, std::uint64_t> deterministic;

    void set(const std::string& name, double value) { values[name] = value; }

    /// Record one check; returns whether it held.
    bool check(bool ok, std::string_view what) {
        if (!ok && violations.size() < 20) violations.emplace_back(what);
        if (!ok && violations.size() == 20) violations.push_back("(further failures omitted)");
        return ok;
    }

    /// Tally one attempted operation.
    void op(bool ok) {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// {"name": {"value": v, "unit": u}, ...} over `metrics`, values from `values`.
template <std::size_t N>
std::string jsonMetrics(const std::array<Metric, N>& metrics,
                        const std::map<std::string, double>& values) {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < N; ++i)
        out << (i ? ", " : "") << '"' << metrics[i].name << R"(": {"value": )"
            << fmt(values.at(metrics[i].name)) << R"(, "unit": ")" << metrics[i].unit << "\"}";
    out << "}";
    return out.str();
}

std::uint64_t peakRssBytes() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

// --------------------------------------------------------------- provenance

/// `"provenance": {...}` — what a result must carry so that numbers from
/// different hosts or builds are never compared. Non-Release builds are
/// flagged by release_build=false.
std::string provenanceJson(const Options& o) {
    __builtin_cpu_init();
    std::ostringstream out;
    const std::string buildType = GEOBENCH_BUILD_TYPE;
#ifdef __AVX2__
    const bool buildAvx2 = true;
#else
    const bool buildAvx2 = false;
#endif
    out << R"("provenance": {"workload": ")" << o.workload << R"(", "seed": )" << o.seed
        << R"(, "seconds": )" << fmt(o.seconds) << R"(, "trace": )" << (o.trace ? 1 : 0)
        << R"(, "cpus": )" << std::thread::hardware_concurrency()
        << R"(, "host_avx2": )" << (__builtin_cpu_supports("avx2") ? "true" : "false")
        << R"(, "host_avx512f": )" << (__builtin_cpu_supports("avx512f") ? "true" : "false")
        << R"(, "build_avx2": )" << (buildAvx2 ? "true" : "false") << R"(, "compiler": ")"
        << GEOBENCH_COMPILER << R"(", "build_type": ")" << buildType
        << R"(", "release_build": )" << (buildType == "Release" ? "true" : "false")
        << R"(, "git_sha": ")" << o.gitSha << R"(", "source_sha": ")" << o.sourceSha
        << "\"}";
    return out.str();
}

// ---------------------------------------------------------- cold workloads

/// A cold workload partitions a pool of independent instances drawn from
/// the seed. k-means work varies a lot between instances of one family
/// (outer iterations 26–50 and distance evaluations ±20% on 125k–250k-point
/// Delaunay meshes), so one instance per run would make partition_s a
/// property of the seed; the median over a pool is a property of the code.
struct ColdSpec {
    std::function<gen::Mesh2(std::uint64_t seed)> generate;
    int instances = 1;
    std::int32_t k = 0;
    double epsilon = 0.03;
    int ranks = 1;
    int threads = 1;
};

/// Times of one partitionGeographer rep (seconds).
struct RepTimes {
    double wall = 0.0;
    double publishAge = 0.0;  ///< inputs ready → snapshot live in the router
    double publish = 0.0;     ///< fromResult + Router::publish
    double evaluate = 0.0;
    double wait = 0.0;        ///< wall − slowest rank's CPU time
    double hilbert = 0.0, redistribute = 0.0, kmeans = 0.0, assign = 0.0, update = 0.0;
    double nsPerDistance = 0.0;  ///< assign time per effective-distance evaluation
    double unaccounted = 0.0;    ///< wall − (keying + sort + k-means phases)
    std::vector<double> route;  ///< serve-back batch latencies
};

struct Instance {
    gen::Mesh2 mesh;
    core::Settings settings;
    double genSeconds = 0.0;
    std::vector<RepTimes> reps;
    /// Reference outcome (first call on this instance): every later rep
    /// must reproduce it exactly.
    bool hasReference = false;
    core::KMeansCounters counters;
    par::RunStats runStats;
    graph::Partition partition;
    graph::PartitionMetrics quality;
};

constexpr std::size_t kQueryBatch = 256;
constexpr int kSetups = 3;  ///< set-up repetitions behind the churn setup_s median

double phase(const core::GeographerResult& r, const char* key) {
    const auto it = r.phaseSeconds.find(key);
    return it == r.phaseSeconds.end() ? 0.0 : it->second;
}

void runCold(const ColdSpec& spec, const Options& opt, Tracer& tracer, Report& report) {
    // ---- set-up: generate the pool, then the first (warm-up) call.
    std::vector<Instance> pool(static_cast<std::size_t>(spec.instances));
    SplitMix64 seeds(opt.seed);
    const auto setupSpan = tracer.open("setup");
    for (auto& inst : pool) {
        const std::uint64_t instanceSeed = seeds.next();
        const auto t0 = Clock::now();
        inst.mesh = spec.generate(instanceSeed);
        inst.settings.epsilon = spec.epsilon;
        inst.settings.threads = spec.threads;
        // The sampling seed must differ per instance too: the initial
        // sample is drawn by position along the curve, so a shared seed
        // seeds every mesh of the pool at the same places and their
        // k-means runs no longer vary independently.
        inst.settings.seed = instanceSeed;
        const auto t1 = Clock::now();
        tracer.record("gen", t0, t1, setupSpan);
        inst.genSeconds = seconds(t1 - t0);
    }

    const auto partition = [&](const Instance& inst) {
        return core::partitionGeographer<2>(inst.mesh.points, inst.mesh.weights, spec.k,
                                            spec.ranks, inst.settings);
    };

    const auto f0 = Clock::now();
    const core::GeographerResult first = partition(pool.front());
    const auto f1 = Clock::now();
    tracer.record("core.partitionGeographer", f0, f1, setupSpan);
    tracer.close(setupSpan);
    const double firstCall = seconds(f1 - f0);

    const auto validPartition = [&](const Instance& inst, const core::GeographerResult& r,
                                    const std::string& tag) {
        try {
            graph::validatePartition(inst.mesh.graph, r.partition, spec.k);
        } catch (const std::exception& e) {
            return report.check(false, tag + ": invalid partition: " + e.what());
        }
        const double imb = graph::imbalance(r.partition, spec.k, inst.mesh.weights);
        return report.check(imb <= spec.epsilon,
                            tag + ": imbalance " + fmt(imb) + " > epsilon " + fmt(spec.epsilon));
    };
    report.op(validPartition(pool.front(), first, "first call"));
    pool.front().hasReference = true;
    pool.front().counters = first.counters;
    pool.front().runStats = first.runStats;
    pool.front().partition = first.partition;

    // ---- timed reps, round-robin over the pool until the window has
    // passed and every instance has run: partition, publish a snapshot,
    // evaluate quality, then serve every input point back through the
    // snapshot (batches back to back, a closed loop).
    serve::Router<2> router(1);
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(opt.seconds));
    std::vector<std::int32_t> out(kQueryBatch);
    for (std::size_t rep = 0; rep < pool.size() || Clock::now() < deadline; ++rep) {
        auto& inst = pool[rep % pool.size()];
        const std::span<const Point2> points(inst.mesh.points);
        const auto t0 = Clock::now();
        const core::GeographerResult result = partition(inst);
        const auto t1 = Clock::now();
        router.publish(serve::PartitionSnapshot<2>::fromResult(result, rep + 1, spec.ranks));
        const auto t2 = Clock::now();
        const auto quality =
            graph::evaluatePartition(inst.mesh.graph, result.partition, spec.k,
                                     inst.mesh.weights, /*computeDiameter=*/false, {}, 4);
        const auto t3 = Clock::now();
        RepTimes times;
        std::uint64_t misrouted = 0;
        for (std::size_t begin = 0; begin < points.size(); begin += kQueryBatch) {
            const std::size_t count = std::min(kQueryBatch, points.size() - begin);
            const auto b0 = Clock::now();
            router.route(points.subspan(begin, count),
                         std::span<std::int32_t>(out.data(), count));
            times.route.push_back(seconds(Clock::now() - b0));
            for (std::size_t i = 0; i < count; ++i)
                misrouted += out[i] != result.partition[begin + i] ? 1 : 0;
        }
        const auto t4 = Clock::now();
        {
            const auto repSpan = tracer.record("rep", t0, t4);
            tracer.record("core.partitionGeographer", t0, t1, repSpan);
            tracer.record("serve.fromResult+publish", t1, t2, repSpan);
            tracer.record("graph.evaluatePartition", t2, t3, repSpan);
            tracer.record("serve.route", t3, t4, repSpan);
        }
        times.wall = seconds(t1 - t0);
        times.publishAge = seconds(t2 - t0);
        times.publish = seconds(t2 - t1);
        times.evaluate = seconds(t3 - t2);
        times.wait = times.wall - result.runStats.maxCpuSeconds;
        times.hilbert = phase(result, "hilbert");
        times.redistribute = phase(result, "redistribute");
        times.kmeans = phase(result, "kmeans");
        times.assign = phase(result, "assign");
        times.update = phase(result, "update");
        times.unaccounted = times.wall - times.hilbert - times.redistribute - times.kmeans;
        if (result.counters.distanceCalcs > 0)
            times.nsPerDistance =
                times.assign * 1e9 / static_cast<double>(result.counters.distanceCalcs);
        inst.reps.push_back(std::move(times));

        // Correctness, and determinism across reps: the same instance
        // gives the same work, bytes, partition and quality.
        const std::string tag = "rep " + std::to_string(rep);
        bool ok = validPartition(inst, result, tag);
        ok &= report.check(misrouted == 0, tag + ": " + std::to_string(misrouted) +
                                               " input points served from another block");
        if (!inst.hasReference) {
            inst.hasReference = true;
            inst.counters = result.counters;
            inst.runStats = result.runStats;
            inst.partition = result.partition;
        }
        if (inst.reps.size() == 1) inst.quality = quality;
        const auto& c = result.counters;
        ok &= report.check(c.distanceCalcs == inst.counters.distanceCalcs &&
                               c.outerIterations == inst.counters.outerIterations &&
                               result.runStats.totalBytes == inst.runStats.totalBytes &&
                               result.partition == inst.partition,
                           tag + ": counters or partition differ from an earlier call");
        ok &= report.check(quality.totalCommVolume == inst.quality.totalCommVolume &&
                               quality.maxCommVolume == inst.quality.maxCommVolume,
                           tag + ": communication volume differs from an earlier rep");
        report.op(ok);
    }

    // ---- pool totals: counters summed over one pass of the pool.
    core::KMeansCounters counters;
    std::uint64_t commBytes = 0, collectives = 0, totalVolume = 0, maxVolumeSum = 0;
    double modeledComm = 0.0;
    std::vector<double> genTimes;
    std::vector<double> routeLatencies;
    for (const auto& inst : pool) {
        counters.merge(inst.counters);
        commBytes += inst.runStats.totalBytes;
        collectives += inst.runStats.collectives;
        modeledComm += inst.runStats.maxModeledCommSeconds;
        totalVolume += static_cast<std::uint64_t>(inst.quality.totalCommVolume);
        maxVolumeSum += static_cast<std::uint64_t>(inst.quality.maxCommVolume);
        genTimes.push_back(inst.genSeconds);
        for (const auto& r : inst.reps)
            routeLatencies.insert(routeLatencies.end(), r.route.begin(), r.route.end());
    }
    // merge() keeps the max outer iterations; the pool total is the sum.
    counters.outerIterations = 0;
    for (const auto& inst : pool) counters.outerIterations += inst.counters.outerIterations;

    // ---- determinism contract: these repeat exactly at one seed.
    report.deterministic = {
        {"core.distance_calcs", counters.distanceCalcs},
        {"core.outer_iterations", static_cast<std::uint64_t>(counters.outerIterations)},
        {"par.comm.bytes", commBytes},
        {"total_comm_volume", totalVolume},
        {"max_comm_volume", maxVolumeSum},
    };

    // ---- metrics: times are medians over every rep of the pool (the
    // round-robin gives each instance the same share of reps).
    std::vector<double> walls, ages, publishes, evals, waits, hilberts, redistributes, kmeanses,
        assigns, updates, nsPerDistance, unaccounted;
    for (const auto& inst : pool)
        for (const auto& r : inst.reps) {
            walls.push_back(r.wall);
            ages.push_back(r.publishAge);
            publishes.push_back(r.publish);
            evals.push_back(r.evaluate);
            waits.push_back(r.wait);
            hilberts.push_back(r.hilbert);
            redistributes.push_back(r.redistribute);
            kmeanses.push_back(r.kmeans);
            assigns.push_back(r.assign);
            updates.push_back(r.update);
            nsPerDistance.push_back(r.nsPerDistance);
            unaccounted.push_back(r.unaccounted);
        }
    const double n = static_cast<double>(pool.size());
    // Set-up repeats one unit — generating a mesh — n times; n × the
    // median unit keeps a host stall during one generation out of setup_s.
    const double genSeconds = n * median(genTimes);
    report.set("setup_s", genSeconds + firstCall);
    report.set("partition_s", median(walls));
    report.set("total_comm_volume", static_cast<double>(totalVolume) / n);
    report.set("max_comm_volume", static_cast<double>(maxVolumeSum) / n);
    report.set("route_p50_s", median(routeLatencies));
    report.set("staleness_p50_s", median(ages));

    report.set("gen.mesh_s", genSeconds);
    report.set("setup.first_call_s", firstCall);
    report.set("sfc.keying_s", median(hilberts));
    report.set("sfc.keyed_points", static_cast<double>(counters.keyedPoints));
    report.set("par.sort_s", median(redistributes));
    report.set("par.sorted_records", static_cast<double>(counters.sortedRecords));
    report.set("par.comm.collectives", static_cast<double>(collectives));
    report.set("par.comm.bytes", static_cast<double>(commBytes));
    report.set("par.comm.modeled_s", modeledComm / n);
    report.set("par.wait_s", median(waits));
    report.set("core.kmeans_s", median(kmeanses));
    report.set("core.update_s", median(updates));
    report.set("core.outer_iterations", counters.outerIterations);
    report.set("core.balance_iterations", static_cast<double>(counters.balanceIterations));
    report.set("core.assign_s", median(assigns));
    report.set("core.distance_calcs", static_cast<double>(counters.distanceCalcs));
    report.set("core.batched_distance_calcs", static_cast<double>(counters.batchedDistanceCalcs));
    report.set("core.skip_fraction", counters.skipFraction());
    report.set("core.assign_ns_per_distance", median(nsPerDistance));
    report.set("core.peak_tile_bytes", static_cast<double>(counters.peakTileBytes));
    report.set("core.spilled_tiles", static_cast<double>(counters.spilledTiles));
    report.set("partition.unaccounted_s", median(unaccounted));
    report.set("graph.evaluate_s", median(evals));
    report.set("serve.publish_s", median(publishes));
    report.set("serve.route_s", median(routeLatencies));
    report.set("serve.route_p90_s", percentile(routeLatencies, 0.90).value);
    report.set("serve.route_p99_s", percentile(routeLatencies, 0.99).value);
    report.set("serve.route_samples", static_cast<double>(routeLatencies.size()));
    report.set("serve.published_epochs", static_cast<double>(router.epoch()));
    report.set("reps", static_cast<double>(walls.size()));
}

// ------------------------------------------------------------- churn_serve

constexpr std::int64_t kChurnPoints = 200000;
constexpr std::int32_t kChurnBlocks = 64;
constexpr double kChurnFraction = 0.01;
constexpr double kQueryRate = 2000.0;        ///< query batches per second
constexpr double kChurnEventRate = 50000.0;  ///< churn events per second
constexpr std::size_t kChurnChunk = 500;     ///< events per submit() call
constexpr double kHealthRate = 100.0;        ///< health() samples per second
constexpr std::size_t kQueryPool = 64;       ///< distinct pre-generated query batches

repart::ScenarioConfig churnScenario(std::uint64_t seed) {
    repart::ScenarioConfig cfg;
    cfg.kind = repart::ScenarioKind::Churn;
    cfg.basePoints = kChurnPoints;
    cfg.churnFraction = kChurnFraction;
    cfg.seed = seed;
    return cfg;
}

/// The churn stream of one run: the initial step, then the diffSteps events
/// of consecutive scenario steps cut into submit() chunks; stepEnds[s] is
/// the chunk count after step s + 1 is complete.
struct ChurnStream {
    repart::WorkloadStep<2> initial;
    std::vector<std::vector<repart::ChurnEvent<2>>> chunks;
    std::vector<std::size_t> stepEnds;
    double initialSeconds = 0.0;      ///< building the scenario's first step
    std::vector<double> stepSeconds;  ///< advance + diffSteps + chunking, per step
};

ChurnStream makeChurnStream(std::uint64_t seed, double runSeconds) {
    ChurnStream stream;
    const auto t0 = Clock::now();
    repart::Scenario<2> scenario(churnScenario(seed));
    stream.initial = scenario.current();
    stream.initialSeconds = seconds(Clock::now() - t0);
    const auto eventsNeeded = static_cast<std::size_t>(std::ceil(runSeconds * kChurnEventRate));
    std::size_t events = 0;
    while (events < eventsNeeded) {
        const auto s0 = Clock::now();
        const repart::WorkloadStep<2> prev = scenario.current();
        scenario.advance();
        const auto diff = repart::diffSteps(prev, scenario.current());
        for (std::size_t b = 0; b < diff.size(); b += kChurnChunk)
            stream.chunks.emplace_back(
                diff.begin() + static_cast<std::ptrdiff_t>(b),
                diff.begin() + static_cast<std::ptrdiff_t>(std::min(diff.size(), b + kChurnChunk)));
        events += diff.size();
        stream.stepEnds.push_back(stream.chunks.size());
        stream.stepSeconds.push_back(seconds(Clock::now() - s0));
    }
    return stream;
}

/// Times recorded by the service hooks on the repartition worker thread.
struct HookLog {
    std::mutex mutex;  ///< guards everything below
    Clock::time_point repartStart{};
    Clock::time_point publishStart{};
    std::uint64_t publishEpoch = 0;  ///< epoch publishHook last announced
    std::vector<double> warm;     ///< repartHook → publishHook
    std::vector<double> publish;  ///< publishHook → onPublish
    std::vector<Clock::time_point> publishedAt;
};

void runChurn(const Options& opt, Tracer& tracer, Report& report) {
    std::vector<std::vector<Point2>> queries(kQueryPool, std::vector<Point2>(kQueryBatch));
    Xoshiro256 qrng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
    for (auto& batch : queries)
        for (auto& p : batch) p = Point2{{qrng.uniform(), qrng.uniform()}};
    std::vector<std::int32_t> out(kQueryBatch);

    HookLog hooks;
    serve::ServiceConfig<2> config;
    config.blocks = kChurnBlocks;
    config.ranks = 1;
    config.settings.threads = 1;
    config.settings.seed = opt.seed;
    config.ingestWorkers = 1;
    config.repartHook = [&](std::uint64_t) {
        const std::lock_guard<std::mutex> lock(hooks.mutex);
        hooks.repartStart = Clock::now();
    };
    config.publishHook = [&](std::uint64_t epoch) {
        const auto now = Clock::now();
        const std::lock_guard<std::mutex> lock(hooks.mutex);
        hooks.publishStart = now;
        hooks.publishEpoch = epoch;
        hooks.warm.push_back(seconds(now - hooks.repartStart));
        tracer.record("repart.warm", hooks.repartStart, now);
    };
    config.onPublish = [&](std::uint64_t epoch,
                           std::shared_ptr<const serve::PartitionSnapshot<2>>) {
        const auto now = Clock::now();
        const std::lock_guard<std::mutex> lock(hooks.mutex);
        // The constructor's cold publish (epoch 1) has no publishHook.
        if (epoch != hooks.publishEpoch) return;
        hooks.publish.push_back(seconds(now - hooks.publishStart));
        hooks.publishedAt.push_back(now);
        tracer.record("serve.publish", hooks.publishStart, now);
    };

    // ---- set-up: stream generation once (it is deterministic and the
    // costliest part), then kSetups × (service construction — cold
    // partition + first publish — and the first route call). Medians.
    std::vector<double> ctorTimes, firstRouteTimes;
    std::unique_ptr<serve::PartitionService<2>> service;
    const auto setupSpan = tracer.open("setup");
    const auto g0 = Clock::now();
    const ChurnStream stream = makeChurnStream(opt.seed, opt.seconds);
    const auto g1 = Clock::now();
    tracer.record("gen.churn", g0, g1, setupSpan);
    // The stream is built from identical steps; steps × the median step
    // keeps a host stall during one of them out of setup_s.
    const double genTime = stream.initialSeconds +
                           static_cast<double>(stream.stepSeconds.size()) *
                               median(stream.stepSeconds);
    for (int i = 0; i < kSetups; ++i) {
        service.reset();
        const auto t1 = Clock::now();
        service = std::make_unique<serve::PartitionService<2>>(config, stream.initial);
        const auto t2 = Clock::now();
        const auto ticket = service->route(std::span<const Point2>(queries[0]),
                                           std::span<std::int32_t>(out));
        const auto t3 = Clock::now();
        report.op(report.check(ticket.status == serve::RouteStatus::Ok, "setup: first route"));
        tracer.record("serve.PartitionService", t1, t2, setupSpan);
        tracer.record("serve.route", t2, t3, setupSpan);
        ctorTimes.push_back(seconds(t2 - t1));
        firstRouteTimes.push_back(seconds(t3 - t2));
    }
    tracer.close(setupSpan);
    {
        // Only the last service's publishes belong to the measured window.
        const std::lock_guard<std::mutex> lock(hooks.mutex);
        hooks.warm.clear();
        hooks.publish.clear();
        hooks.publishedAt.clear();
    }

    // ---- the open loop: one generator thread (this one) owns three
    // fixed-rate streams — query batches, churn chunks, health samples —
    // and always serves whichever is due first.
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(opt.seconds));
    const geobench::FixedRateSchedule querySchedule(start, kQueryRate);
    const geobench::FixedRateSchedule churnSchedule(
        start, kChurnEventRate / static_cast<double>(kChurnChunk));
    const geobench::FixedRateSchedule healthSchedule(start, kHealthRate);
    std::uint64_t nq = 0, nc = 0, nh = 0;

    std::vector<double> latencies, routeSeconds, queueWaits, staleness;
    latencies.reserve(static_cast<std::size_t>(opt.seconds * kQueryRate) + 16);
    double lateMax = 0.0;
    std::uint64_t lastEpoch = 0;
    for (;;) {
        const auto dq = querySchedule.due(nq);
        const auto dc =
            nc < stream.chunks.size() ? churnSchedule.due(nc) : Clock::time_point::max();
        const auto dh = healthSchedule.due(nh);
        const auto due = std::min({dq, dc, dh});
        if (due >= end) break;
        // Sleep to just short of the due time, then spin: timer wake-up
        // jitter would otherwise show up as latency.
        if (due - Clock::now() > std::chrono::microseconds(300))
            std::this_thread::sleep_until(due - std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
        lateMax = std::max(lateMax, seconds(Clock::now() - due));
        if (due == dq) {
            const auto& batch = queries[nq % kQueryPool];
            const auto ticket = service->route(std::span<const Point2>(batch),
                                               std::span<std::int32_t>(out));
            const auto done = Clock::now();
            bool ok = report.check(ticket.status == serve::RouteStatus::Ok, "route not Ok");
            if (ok) {
                const double latency = geobench::latencyFromDue(due, done);
                latencies.push_back(latency);
                routeSeconds.push_back(ticket.seconds);
                queueWaits.push_back(std::max(0.0, latency - ticket.seconds));
                ok &= report.check(std::all_of(out.begin(), out.end(),
                                               [](std::int32_t b) {
                                                   return b >= 0 && b < kChurnBlocks;
                                               }),
                                   "answer outside [0, k)");
                ok &= report.check(ticket.epoch >= lastEpoch, "route ticket epoch went back");
                lastEpoch = std::max(lastEpoch, ticket.epoch);
                tracer.record("serve.route", due, done);
            }
            report.op(ok);
            ++nq;
        } else if (due == dc) {
            const auto t0 = Clock::now();
            report.op(report.check(service->submit(stream.chunks[nc]), "submit refused"));
            tracer.record("serve.submit", t0, Clock::now());
            ++nc;
        } else {
            const auto t0 = Clock::now();
            staleness.push_back(service->health().stalenessSeconds);
            tracer.record("serve.health", t0, Clock::now());
            ++nh;
        }
    }
    const auto health = service->health();
    std::vector<double> warm, publish, intervals;
    {
        const std::lock_guard<std::mutex> lock(hooks.mutex);
        warm = hooks.warm;
        publish = hooks.publish;
        for (std::size_t i = 1; i < hooks.publishedAt.size(); ++i)
            intervals.push_back(seconds(hooks.publishedAt[i] - hooks.publishedAt[i - 1]));
    }

    // ---- after the window (untimed): finish the current scenario step,
    // drain, and publish a snapshot of the complete point set.
    std::size_t steps = 0;  // index of the step the last submitted chunk belongs to
    while (steps + 1 < stream.stepEnds.size() && stream.stepEnds[steps] < nc) ++steps;
    bool ok = true;
    for (; nc < stream.stepEnds[steps]; ++nc)
        ok &= report.check(service->submit(stream.chunks[nc]), "submit refused");
    ok &= report.check(service->waitForIngestDrain(60.0), "ingest did not drain");
    bool fresh = false;
    for (int attempt = 0; attempt < 50 && !fresh; ++attempt) {
        service->requestRepartition();
        service->waitForEpoch(service->router().epoch() + 1, 5.0);
        fresh = service->health().stalenessEvents == 0;
    }
    report.op(ok && report.check(fresh, "no snapshot of the final point set was published"));
    const auto finalSnapshot = service->router().snapshot();
    service->stop();
    service.reset();

    // Quality of the served partition over the final point set, on its
    // Delaunay graph. The final set is the scenario after steps + 1
    // advances; replay it (deterministic) rather than keep every step.
    repart::Scenario<2> replay(churnScenario(opt.seed));
    for (std::size_t s = 0; s <= steps; ++s) replay.advance();
    const auto& finalPoints = replay.current().points;
    std::vector<std::int32_t> finalPart(finalPoints.size());
    finalSnapshot->blockOf(std::span<const Point2>(finalPoints),
                           std::span<std::int32_t>(finalPart));
    const auto e0 = Clock::now();
    const auto finalGraph = gen::delaunayTriangulate2d(finalPoints);
    const auto quality = graph::evaluatePartition(finalGraph, finalPart, kChurnBlocks, {},
                                                  /*computeDiameter=*/false, {}, 4);
    const auto e1 = Clock::now();
    tracer.record("graph.evaluatePartition", e0, e1);

    // ---- metrics.
    const auto p90 = percentile(latencies, 0.90);
    const auto p99 = percentile(latencies, 0.99);
    report.op(report.check(geobench::supported(p99),
                           "serve.route_p99_s rests on fewer than 10 tail samples"));
    report.set("setup_s", genTime + median(ctorTimes) + median(firstRouteTimes));
    report.set("partition_s", median(warm));
    report.set("total_comm_volume", static_cast<double>(quality.totalCommVolume));
    report.set("max_comm_volume", static_cast<double>(quality.maxCommVolume));
    report.set("route_p50_s", median(latencies));
    report.set("staleness_p50_s", median(staleness));

    report.set("gen.churn_s", genTime);
    report.set("setup.first_call_s", median(ctorTimes));
    report.set("graph.evaluate_s", seconds(e1 - e0));
    report.set("repart.warm_s", median(warm));
    report.set("serve.publish_s", median(publish));
    report.set("serve.publish_interval_s", median(intervals));
    report.set("serve.route_s", median(routeSeconds));
    report.set("serve.route_p90_s", p90.value);
    report.set("serve.route_p99_s", p99.value);
    report.set("serve.route_samples", static_cast<double>(p99.samples));
    report.set("serve.queue_wait_s", percentile(queueWaits, 0.99).value);
    report.set("serve.misroute_frac", health.lastMisrouteFraction);
    report.set("serve.published_epochs", static_cast<double>(health.publishedEpochs));
    report.set("serve.repartition_attempts", static_cast<double>(health.repartitionAttempts));
    report.set("serve.shed", static_cast<double>(health.shedQueries));
    report.set("serve.backpressure_waits", static_cast<double>(health.backpressureWaits));
    report.set("loadgen.late_max_s", lateMax);
    report.set("reps", static_cast<double>(warm.size()));
}

// ---------------------------------------------------------- determinism state

/// Compare the deterministic numbers against an earlier run of the same
/// source at the same seed (recorded under --state-dir), or record them.
void checkAcrossRuns(const Options& opt, Report& report) {
    if (opt.stateDir.empty() || report.deterministic.empty()) return;
    namespace fs = std::filesystem;
    fs::create_directories(opt.stateDir);
    const fs::path file =
        fs::path(opt.stateDir) / (opt.workload + "-seed" + std::to_string(opt.seed) + ".txt");
    if (std::ifstream in(file); in) {
        std::string key;
        std::uint64_t value = 0;
        bool ok = true;
        while (in >> key >> value) {
            const auto it = report.deterministic.find(key);
            ok &= report.check(it != report.deterministic.end() && it->second == value,
                               "determinism: " + key + " differs from an earlier run");
        }
        report.op(ok);
        return;
    }
    std::ofstream out(file);
    for (const auto& [key, value] : report.deterministic) out << key << " " << value << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    try {
        opt = parseOptions(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "geobench: " << e.what() << "\n";
        return 2;
    }

    Tracer tracer(opt.trace);
    Report report;
    try {
        if (opt.workload == "cold_mesh2d") {
            runCold({[](std::uint64_t seed) { return gen::delaunay2d(125000, seed); },
                     /*instances=*/32, /*k=*/64, /*epsilon=*/0.03, /*ranks=*/4,
                     /*threads=*/1},
                    opt, tracer, report);
        } else if (opt.workload == "churn_serve") {
            runChurn(opt, tracer, report);
        } else {
            std::cerr << "geobench: unknown workload '" << opt.workload << "'\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "geobench: " << e.what() << "\n";
        return 1;
    }
    checkAcrossRuns(opt, report);

    // Metrics a workload leaves unset belong to layers it does not reach.
    for (const auto& m : kPerLayer) report.values.try_emplace(m.name, 0.0);
    report.set("peak_rss_bytes", static_cast<double>(peakRssBytes()));
    report.set("failed_frac", report.attempted
                                  ? static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted)
                                  : 0.0);
    report.set("trace.spans", static_cast<double>(tracer.size()));
    for (const auto& m : kEndToEnd)
        if (!report.values.contains(m.name)) {
            std::cerr << "geobench: workload did not measure " << m.name << "\n";
            return 1;
        }

    const std::string provenance = provenanceJson(opt);
    const bool correct = report.violations.empty() && report.failed == 0;
    const std::string metrics = opt.trace ? jsonMetrics(kPerLayer, report.values)
                                          : jsonMetrics(kEndToEnd, report.values);
    if (!opt.outDir.empty()) {
        std::filesystem::create_directories(opt.outDir);
        const std::string stem =
            opt.outDir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
        std::ofstream result(stem + "-trace" + (opt.trace ? "1" : "0") + ".json");
        result << "{" << provenance << ",\n \"correct\": " << (correct ? "true" : "false")
               << ",\n \"end_to_end\": " << jsonMetrics(kEndToEnd, report.values)
               << ",\n \"per_layer\": " << jsonMetrics(kPerLayer, report.values) << "}\n";
        if (opt.trace) {
            std::ofstream spans(stem + ".spans.json");
            tracer.writeJson(spans);
        }
    }

    for (const auto& v : report.violations) std::cerr << "geobench: FAILED " << v << "\n";
    std::cout << "{" << provenance << "}\n";
    for (const auto& m : opt.trace ? std::span<const Metric>(kPerLayer)
                                   : std::span<const Metric>(kEndToEnd))
        std::cout << "  " << m.name << " = " << fmt(report.values.at(m.name)) << " " << m.unit
                  << "\n";
    std::cout << R"({"correct": )" << (correct ? "true" : "false") << R"(, "attempted": )"
              << report.attempted << R"(, "failed": )" << report.failed << R"(, "metrics": )"
              << metrics << "}" << std::endl;
    return correct ? 0 : 1;
}
