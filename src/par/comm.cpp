#include "par/comm.hpp"

#include <algorithm>
#include <ctime>
#include <exception>
#include <thread>

#include "par/transport/sim.hpp"
#include "par/transport/socket.hpp"

namespace geo::par {

namespace detail {

double threadCpuSeconds() noexcept {
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace detail

namespace {

/// Sim-backend run: one thread per logical rank over shared slots.
RunStats runSim(int ranks, const CostModel& model,
                const std::function<void(Comm&)>& body) {
    SimShared shared(ranks);
    std::vector<CommStats> stats(static_cast<std::size_t>(ranks));
    std::vector<double> cpuSeconds(static_cast<std::size_t>(ranks), 0.0);

    if (ranks == 1) {
        // Serial fast path: no thread spawn; keeps unit tests and examples
        // cheap and debuggable.
        SimTransport transport(0, shared);
        Comm comm(transport, model, stats[0]);
        const double cpu0 = detail::threadCpuSeconds();
        body(comm);
        cpuSeconds[0] = detail::threadCpuSeconds() - cpu0;
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(ranks));
        std::vector<std::exception_ptr> errors(static_cast<std::size_t>(ranks));
        for (int r = 0; r < ranks; ++r) {
            threads.emplace_back([&, r] {
                SimTransport transport(r, shared);
                Comm comm(transport, model, stats[static_cast<std::size_t>(r)]);
                const double cpu0 = detail::threadCpuSeconds();
                try {
                    body(comm);
                } catch (...) {
                    errors[static_cast<std::size_t>(r)] = std::current_exception();
                    // This rank will never reach another barrier: release
                    // the peers waiting in (or heading into) a collective.
                    shared.barrier.abort();
                }
                cpuSeconds[static_cast<std::size_t>(r)] =
                    detail::threadCpuSeconds() - cpu0;
            });
        }
        for (auto& t : threads) t.join();
        // Rethrow the failure that started the abort (lowest rank first),
        // not the BarrierAborted its peers unwound with.
        std::exception_ptr aborted;
        for (auto& e : errors) {
            if (!e) continue;
            try {
                std::rethrow_exception(e);
            } catch (const detail::BarrierAborted&) {
                aborted = e;
            } catch (...) {
                throw;
            }
        }
        if (aborted) std::rethrow_exception(aborted);
    }

    RunStats out;
    for (int r = 0; r < ranks; ++r) {
        const auto& s = stats[static_cast<std::size_t>(r)];
        out.maxCpuSeconds = std::max(out.maxCpuSeconds, cpuSeconds[static_cast<std::size_t>(r)]);
        out.maxModeledCommSeconds = std::max(out.maxModeledCommSeconds, s.modeledCommSeconds);
        out.totalBytes += s.bytesSent;
        out.collectives = std::max(out.collectives, s.collectives);
    }
    return out;
}

/// Process-backend run: the body executes ONCE here, on this process's
/// rank; peer processes run their own copies. RunStats are then combined
/// across processes through raw (unaccounted) transport reductions so every
/// process reports the same aggregate, just like the simulator does.
RunStats runProcess(Transport& transport, const CostModel& model,
                    const std::function<void(Comm&)>& body) {
    struct Lease {
        ~Lease() { releaseProcessTransport(); }
    } lease;

    CommStats stats;
    Comm comm(transport, model, stats);
    const double cpu0 = detail::threadCpuSeconds();
    body(comm);
    const double cpu = detail::threadCpuSeconds() - cpu0;

    RunStats out;
    out.maxCpuSeconds = cpu;
    out.maxModeledCommSeconds = stats.modeledCommSeconds;
    out.totalBytes = stats.bytesSent;
    out.collectives = stats.collectives;
    transport.allreduce(&out.maxCpuSeconds, 1, DType::F64, ReduceOp::Max);
    transport.allreduce(&out.maxModeledCommSeconds, 1, DType::F64, ReduceOp::Max);
    transport.allreduce(&out.totalBytes, 1, DType::U64, ReduceOp::Sum);
    transport.allreduce(&out.collectives, 1, DType::U64, ReduceOp::Max);
    return out;
}

}  // namespace

Machine::Machine(int ranks, CostModel model, TransportKind kind)
    : ranks_(ranks), model_(model), kind_(kind) {
    GEO_REQUIRE(ranks >= 1, "need at least one rank");
}

RunStats Machine::run(const std::function<void(Comm&)>& body) {
    TransportKind kind = kind_ == TransportKind::Auto ? envTransportKind() : kind_;
    if (kind == TransportKind::Socket || kind == TransportKind::Tcp) {
        ensureWorkerTransport();  // no-op outside a geo_launch worker
        if (Transport* transport = acquireProcessTransport(ranks_))
            return runProcess(*transport, model_, body);
        // No worker transport of this size available (not a geo_launch
        // worker, rank-count mismatch, or an enclosing run holds the lease):
        // simulate. Nested sub-communicators land here by design.
    }
    return runSim(ranks_, model_, body);
}

RunStats runSpmd(int ranks, const std::function<void(Comm&)>& body, CostModel model,
                 TransportKind kind) {
    Machine machine(ranks, model, kind);
    return machine.run(body);
}

}  // namespace geo::par
