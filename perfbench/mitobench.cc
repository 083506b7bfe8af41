/**
 * @file
 * mitobench: the host-cost and paper-fidelity benchmark of MitoSim.
 *
 * Runs one named workload end to end through the library's public entry
 * points (sim::Machine, os::Kernel, core::MitosisBackend,
 * os::ExecContext, workloads::makeWorkload), building every machine
 * fresh, in one host thread:
 *
 *   walk_4k      canneal, 4 sockets x 2 threads, 128 MiB of 4 KB pages,
 *                first-touch; F then F+M (replicate on all sockets)
 *   populate_4g  GUPS, one thread on socket 0, 4 GiB of 4 KB pages,
 *                data on socket 0, page-tables + interferer on socket 1;
 *                RPI-LD then RPI-LD+M (migrate the page-tables home)
 *   thp_churn    memcached, 4 sockets, 2 GiB THP-eligible behind full
 *                fragmentation, replicas on all sockets; phased slices
 *                with madvise toggles and khugepaged/kcompactd ticks
 *
 * One run repeats "fresh set-up + measured phase" iterations until
 * --seconds of host time have passed and reports medians. With
 * --trace 0 it prints the end-to-end metrics (set-up time, simulated
 * accesses per second — both in reference seconds, see HostProbe — peak
 * RSS, distance from the paper's speed-up). With --trace 1 it
 * alternates untraced and traced iterations: the traced ones replay
 * runInterleaved's chunking as explicit Workload::stepBatch +
 * ExecContext::runBatch calls wrapped in host-time spans, and the run
 * prints per-layer self times and counts.
 * Every run checks its own outputs (kernel invariant battery, counter
 * identities, determinism digest) and exits non-zero on any failure.
 * See README.md beside this file.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/check/vmcheck.h"
#include "src/core/mitosis.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/sim/machine.h"
#include "src/workloads/workload.h"

using namespace mitosim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in [0, 1]) of @p v. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

enum class WorkloadKind
{
    Walk4k,
    Populate4g,
    ThpChurn,
};

struct Options
{
    WorkloadKind kind = WorkloadKind::Walk4k;
    std::string name = "walk_4k";
    std::uint64_t seed = 42;
    std::uint64_t fragSeed = 0xf7a6;
    double seconds = 10.0;
    bool trace = false;
    bool shortRun = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "mitobench: %s\n"
                 "usage: mitobench --workload walk_4k|populate_4g|"
                 "thp_churn [--seed N] [--frag-seed N]\n"
                 "                 [--seconds S] [--trace 0|1] "
                 "[--length full|short] [--spans FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.name = val;
            have_workload = true;
            if (val == "walk_4k")
                o.kind = WorkloadKind::Walk4k;
            else if (val == "populate_4g")
                o.kind = WorkloadKind::Populate4g;
            else if (val == "thp_churn")
                o.kind = WorkloadKind::ThpChurn;
            else
                usage(("unknown workload " + val).c_str());
        } else if (arg == "--seed" || arg == "--frag-seed") {
            std::uint64_t v = std::strtoull(val.c_str(), &end, 0);
            if (val.empty() || *end)
                usage(("bad number for " + arg).c_str());
            (arg == "--seed" ? o.seed : o.fragSeed) = v;
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(o.seconds > 0.0))
                usage("--seconds wants a positive number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace wants 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--length") {
            if (val != "full" && val != "short")
                usage("--length wants full or short");
            o.shortRun = val == "short";
        } else if (arg == "--spans") {
            o.spansPath = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

/**
 * Path hygiene: the benchmark measures the library's default engine
 * path only. Environment switches that pick another replay path or arm
 * instrumentation would silently change what is timed, so refuse them,
 * as well as a library that is not an optimised build.
 */
void
requireDefaultPaths()
{
    static const char *const Banned[] = {
        "MITOSIM_FUSE", "MITOSIM_BATCH", "MITOSIM_SIM_THREADS",
        "MITOSIM_SNAPSHOTS", "MITOSIM_TRACE", "MITOSIM_CHECK"};
    for (char **env = environ; *env; ++env) {
        for (const char *prefix : Banned) {
            if (std::strncmp(*env, prefix, std::strlen(prefix)) == 0) {
                std::fprintf(stderr,
                             "mitobench: refusing to run with %s set "
                             "(it selects an engine path or adds "
                             "instrumentation)\n",
                             *env);
                std::exit(2);
            }
        }
    }
}

void
requireReleaseBuild()
{
#ifndef NDEBUG
    std::fprintf(stderr, "mitobench: assertions are compiled in; "
                         "build with CMAKE_BUILD_TYPE=Release\n");
    std::exit(2);
#endif
    if (std::strcmp(MITOBENCH_BUILD_TYPE, "Release") != 0 ||
        MITOBENCH_CHECK_DEFAULT) {
        std::fprintf(stderr,
                     "mitobench: library build is '%s'%s; the benchmark "
                     "needs a Release build without "
                     "MITOSIM_CHECK_DEFAULT\n",
                     MITOBENCH_BUILD_TYPE,
                     MITOBENCH_CHECK_DEFAULT ? " with vmcheck default-on"
                                             : "");
        std::exit(2);
    }
}

// ---------------------------------------------------------------------
// Host speed probe
// ---------------------------------------------------------------------

/**
 * A fixed piece of host work shaped like the simulator's own and
 * independent of its code: insert 256K pseudo-random keys into a
 * node-based hash map, look each one up, and sort a copy of the keys
 * (about 10 MiB of pointer-chasing through malloc'd nodes, beyond a
 * core's L2). On a shared virtual machine the host's speed drifts by
 * up to ~2x over minutes, and the simulator drifts with the memory
 * system, not with the core alone: an L2-resident pointer chase slowed
 * only 0.4-0.9x as much as the workloads, unevenly across them, while
 * this probe tracks every workload's measured phase and set-up with a
 * run-level elasticity of about 0.8-1.15 where it was measured. Host
 * times are therefore reported in *reference seconds*: wall seconds x
 * RefNsPerKey / the probe's ns per key around the same iteration. A
 * faster simulator reads faster whatever the host does; the raw
 * wall-clock figures are printed beside them.
 */
class HostProbe
{
  public:
    /** ns per key of the probe on the reference host. */
    static constexpr double RefNsPerKey = 400.0;

    HostProbe() : keys_(256u << 10)
    {
        Rng rng(0x9e0be5eedull);
        for (std::uint64_t &k : keys_)
            k = rng.next();
    }

    /** Host ns per key of one pass, timed now. */
    double
    nsPerKey()
    {
        auto t0 = Clock::now();
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        for (std::uint64_t k : keys_)
            map[k] = k >> 3;
        std::uint64_t sum = 0;
        for (std::uint64_t k : keys_)
            sum += map.at(k);
        std::vector<std::uint64_t> sorted(keys_);
        std::sort(sorted.begin(), sorted.end());
        sink_ = sum + sorted[sum % sorted.size()];
        last_ = secondsBetween(t0, Clock::now()) * 1e9 /
                static_cast<double>(keys_.size());
        return last_;
    }

    /**
     * The latest pass's ns per key (timing one if none ran yet), so the
     * pass after one iteration also serves as the pass before the next.
     */
    double
    latest()
    {
        return last_ > 0 ? last_ : nsPerKey();
    }

  private:
    std::vector<std::uint64_t> keys_;
    volatile std::uint64_t sink_ = 0; //!< keeps the pass from folding
    double last_ = 0;
};

// ---------------------------------------------------------------------
// Spans: host-time intervals around calls into each layer
// ---------------------------------------------------------------------

struct Span
{
    const char *name;
    double start; //!< seconds since the recorder's epoch
    double end;
    int parent;   //!< index of the enclosing span, -1 for a root
};

/**
 * In-memory span recorder. Disabled, scope() just calls through, so
 * untraced iterations pay no clock reads.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool on) : on_(on), epoch_(Clock::now()) {}

    template <class F>
    void
    scope(const char *name, F &&fn)
    {
        if (!on_) {
            fn();
            return;
        }
        int idx = static_cast<int>(spans_.size());
        spans_.push_back(
            Span{name, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(idx);
        fn();
        stack_.pop_back();
        spans_[static_cast<std::size_t>(idx)].end = now();
    }

    /**
     * Self time per span name, over the spans below root @p root_name:
     * a span's duration minus the part its children cover.
     */
    std::map<std::string, double>
    selfTimes(const char *root_name) const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (std::strcmp(spans_[rootOf(i)].name, root_name) == 0)
                out[spans_[i].name] += self[i];
        return out;
    }

    /** Durations (s) of every span named @p name. */
    std::vector<double>
    durations(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (std::strcmp(s.name, name) == 0)
                out.push_back(s.end - s.start);
        return out;
    }

    /** Total duration of the root spans named @p name. */
    double
    rootTime(const char *name) const
    {
        double t = 0.0;
        for (const Span &s : spans_)
            if (s.parent < 0 && std::strcmp(s.name, name) == 0)
                t += s.end - s.start;
        return t;
    }

    /** Write the spans as Chrome trace-event JSON ("X" events, µs). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                         i ? "," : "", s.name, s.start * 1e6,
                         (s.end - s.start) * 1e6, i, s.parent);
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    double now() const { return secondsBetween(epoch_, Clock::now()); }

    std::size_t
    rootOf(std::size_t i) const
    {
        while (spans_[i].parent >= 0)
            i = static_cast<std::size_t>(spans_[i].parent);
        return i;
    }

    bool on_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/** Counts checks against failures; every failure is printed. */
class CheckLedger
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** FNV-1a over 64-bit words: the determinism digest. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(const sim::PerfCounters &pc)
    {
        for (std::uint64_t v :
             {pc.cycles, pc.walkCycles, pc.dataStallCycles,
              pc.kernelCycles, pc.computeCycles, pc.accesses,
              pc.tlbL1Hits, pc.tlbL2Hits, pc.tlbMisses, pc.walks,
              pc.walkMemRefs, pc.ptDramLocal, pc.ptDramRemote,
              pc.dataDramLocal, pc.dataDramRemote, pc.l1dHits,
              pc.l3LocalHits, pc.l3RemoteHits, pc.pageFaults,
              pc.numaHintFaults, pc.dataPagesMigrated, pc.tlbShootdowns,
              pc.contextSwitches, pc.postSwitchTlbMisses,
              pc.postSwitchWalkCycles})
            add(v);
        for (const auto &level : pc.walkCyclesAttr)
            for (Cycles c : level)
                add(c);
    }

    void
    add(const core::MitosisStats &s)
    {
        for (std::uint64_t v :
             {s.replicaPagesCreated, s.replicaPagesFreed, s.eagerUpdates,
              s.replicaRefsOnUpdate, s.adMergedReads, s.treeReplications,
              s.treeMigrations, s.degradedAllocs, s.scheduleReplications,
              s.hugeCollapses, s.hugeSplits})
            add(v);
    }

    void
    add(const os::thp::ThpStats &s)
    {
        for (std::uint64_t v :
             {s.rangesScanned, s.collapses, s.collapseFailedNoBlock,
              s.splits, s.compactionBlocksReclaimed,
              s.compactionPagesMoved, s.compactionFailures,
              s.daemonCycles})
            add(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------

/** The figure benches' machine: 4 sockets x 2 cores, scaled caches. */
sim::MachineConfig
benchMachine()
{
    sim::MachineConfig cfg;
    cfg.topo.numSockets = 4;
    cfg.topo.coresPerSocket = 2;
    cfg.topo.memPerSocket = 6ull << 30;
    // Keep the paper's leaf-PTE : L3 ratio (~4:1), so 4 KB walks are
    // DRAM-bound as on the real machine.
    cfg.hier.l3BytesPerSocket = 64ull << 10;
    cfg.hier.l1dBytes = 4ull << 10;
    cfg.tlb.l2Holds2M = false;
    return cfg;
}

/** runInterleaved's default chunk (ops per thread per turn). */
constexpr unsigned Chunk = 32;

/** Sizes of one iteration; --length short divides the op counts. */
struct Shape
{
    const char *generator;
    std::uint64_t footprint;
    bool thp;
    std::uint64_t warmupOps;  //!< per thread, untimed
    std::uint64_t measureOps; //!< per thread, per pass / slice total
    int phases = 1;           //!< thp_churn: slices with daemon work
    int ticksPerPhase = 0;
    int togglesPerPhase = 0;
    double paperSpeedup = 0;  //!< 0 = no paper reference
};

Shape
shapeOf(const Options &o)
{
    Shape s{};
    switch (o.kind) {
      case WorkloadKind::Walk4k:
        s = {"canneal", 128ull << 20, false, 2000, 24000};
        s.paperSpeedup = 1.34; // Fig 9a canneal F -> F+M
        break;
      case WorkloadKind::Populate4g:
        s = {"gups", 4ull << 30, false, 2000, 200000};
        s.paperSpeedup = 3.24; // Fig 10a GUPS RPI-LD -> RPI-LD+M
        break;
      case WorkloadKind::ThpChurn:
        s = {"memcached", 2ull << 30, true, 2000, 16000};
        s.phases = 16;
        s.ticksPerPhase = 4;
        s.togglesPerPhase = 16;
        break;
    }
    if (o.shortRun) {
        s.warmupOps /= 4;
        s.measureOps /= 8;
        s.phases = std::max(1, s.phases / 4);
    }
    return s;
}

// ---------------------------------------------------------------------
// One iteration: fresh machine, set-up, measured phase
// ---------------------------------------------------------------------

/** Ops the generators produced. */
struct Counts
{
    std::uint64_t generatedAccesses = 0;
    std::uint64_t generatedOps = 0; //!< accesses + computes
};

/**
 * Drive @p ops_per_thread operations of @p w per thread, exactly as
 * runInterleaved does (round-robin, Chunk ops per turn), as explicit
 * stepBatch + runBatch calls wrapped in spans. With @p ctx null it only
 * generates (the expected-op count of the correctness check).
 */
void
drive(os::ExecContext *ctx, workloads::Workload &w, int threads,
      std::uint64_t ops_per_thread, SpanRecorder &rec, Counts &counts,
      std::vector<VirtAddr> *sample)
{
    constexpr std::size_t SampleCap = 1u << 15;
    constexpr std::uint64_t SampleStride = 7;
    std::vector<os::BatchOp> buf;
    std::vector<std::uint64_t> done(static_cast<std::size_t>(threads), 0);
    bool any = true;
    while (any) {
        any = false;
        for (int t = 0; t < threads; ++t) {
            auto &d = done[static_cast<std::size_t>(t)];
            std::uint64_t end = std::min(ops_per_thread, d + Chunk);
            if (d < end) {
                buf.clear();
                bool ok = true;
                rec.scope("workloads.gen", [&] {
                    ok = w.stepBatch(t, static_cast<unsigned>(end - d),
                                     buf);
                });
                if (!ok) {
                    std::fprintf(stderr, "mitobench: %s has no batched "
                                         "generator\n",
                                 w.name());
                    std::exit(2);
                }
                counts.generatedOps += buf.size();
                for (const os::BatchOp &op : buf) {
                    if (op.isCompute)
                        continue;
                    if (sample && t == 0 && sample->size() < SampleCap &&
                        counts.generatedAccesses % SampleStride == 0)
                        sample->push_back(op.va);
                    ++counts.generatedAccesses;
                }
                if (ctx)
                    rec.scope("sim.replay", [&] {
                        ctx->runBatch(t, buf.data(), buf.size());
                    });
                d = end;
            }
            if (d < ops_per_thread)
                any = true;
        }
    }
}

volatile std::uint64_t probeSink;

/** Host nanoseconds per call of the four layer probes. */
struct Probes
{
    double tlbLookupNs = 0;
    double pwcLookupNs = 0;
    double walkNs = 0;
    double cacheAccessNs = 0;
};

/**
 * Replay a sample of the workload's own VAs through copies of thread
 * 0's TLB and PWC, a standalone walker over the live page-table, and
 * the live cache hierarchy. Runs after the digest: the walker and the
 * cache probe mutate simulated state.
 */
Probes
probeLayers(sim::Machine &machine, CoreId core,
            const std::vector<VirtAddr> &vas)
{
    constexpr int Reps = 8;
    Probes p;
    if (vas.empty())
        return p;
    sim::Core &c = machine.core(core);
    const Pfn cr3 = c.cr3();
    std::uint64_t sink = 0;

    // Nanoseconds per call of Reps passes of @p body, @p per_pass calls
    // each.
    auto timed = [](std::size_t per_pass, auto &&body) {
        auto t0 = Clock::now();
        for (int r = 0; r < Reps; ++r)
            body(r);
        return secondsBetween(t0, Clock::now()) * 1e9 /
               static_cast<double>(Reps * std::max<std::size_t>(per_pass, 1));
    };

    sim::PageWalker walker(machine.physmem(), machine.hierarchy());
    tlb::PagingStructureCache walk_pwc = c.pwc();
    std::vector<tlb::TlbEntry> entries(vas.size());
    std::vector<PhysAddr> pas;
    pas.reserve(vas.size());
    p.walkNs = timed(vas.size(), [&](int r) {
        for (std::size_t i = 0; i < vas.size(); ++i) {
            auto out = walker.walk(core, cr3, vas[i], false, walk_pwc,
                                   nullptr);
            sink += out.latency;
            if (r == 0 && out.fault == sim::WalkFault::None) {
                entries[i] = out.entry;
                std::uint64_t mask =
                    out.entry.size == PageSizeKind::Large2M
                        ? LargePageSize - 1
                        : PageSize - 1;
                pas.push_back(pfnToAddr(out.entry.pfn) + (vas[i] & mask));
            }
        }
    });

    tlb::TwoLevelTlb tlb = c.tlb();
    p.tlbLookupNs = timed(vas.size(), [&](int) {
        for (std::size_t i = 0; i < vas.size(); ++i) {
            auto look = tlb.lookup(vas[i]);
            sink += look.latency;
            if (!look.hit && entries[i].pfn != InvalidPfn)
                tlb.insert(vas[i], entries[i]);
        }
    });

    tlb::PagingStructureCache pwc = c.pwc();
    p.pwcLookupNs = timed(vas.size(), [&](int) {
        for (VirtAddr va : vas)
            sink += static_cast<std::uint64_t>(pwc.lookup(cr3, va).startLevel);
    });

    sim::MemoryHierarchy &hier = machine.hierarchy();
    p.cacheAccessNs = timed(pas.size(), [&](int) {
        for (PhysAddr pa : pas)
            sink += hier.access(core, pa, false, sim::AccessKind::Data,
                                nullptr);
    });
    probeSink = sink; // keeps the probe loops from being optimised away
    return p;
}

/** What one iteration produced. */
struct IterResult
{
    bool traced = false;
    double setupS = 0;
    double measuredS = 0;
    double probeNs = 0; //!< HostProbe ns per key around this iteration

    /** Wall seconds -> reference seconds (see HostProbe). */
    double
    toRef(double wall) const
    {
        return wall * HostProbe::RefNsPerKey / probeNs;
    }
    std::uint64_t timedAccesses = 0;
    double speedup = 0; //!< 0 on thp_churn
    std::uint64_t digest = 0;

    // Traced iterations only.
    std::map<std::string, double> measuredSelf;
    std::map<std::string, double> setupSelf;
    std::vector<double> tickMs;
    std::uint64_t vmaCalls = 0;
    Counts counts;
    Probes probes;

    // Simulated counters (every iteration).
    sim::PerfCounters timed;        //!< summed over the timed slices
    std::uint64_t setupFaults = 0;
    std::uint64_t fusedOps = 0;
    std::uint64_t tableChunks = 0;
    std::uint64_t replicaPagesCreated = 0;
    std::uint64_t eagerUpdates = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t thpCollapses = 0;
    std::uint64_t thpSplits = 0;
};

/** One simulated machine with the benchmark's process on it. */
struct Universe
{
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<core::MitosisBackend> mitosis;
    std::unique_ptr<os::Kernel> kernel;
    os::Process *proc = nullptr;
    std::unique_ptr<os::ExecContext> ctx;
    std::unique_ptr<workloads::Workload> w;

    ~Universe()
    {
        if (kernel && proc)
            kernel->finalizeProcess(*proc);
    }
};

std::uint64_t
fusedOps(sim::Machine &m)
{
    std::uint64_t n = 0;
    for (CoreId c = 0; c < m.numCores(); ++c)
        n += m.core(c).fusedOps();
    return n;
}

std::uint64_t
shootdowns(sim::Machine &m)
{
    return m.metrics().counter("kernel_tlb_shootdowns").value;
}

/** Faults the kernel serviced, every kind. */
std::uint64_t
kernelFaults(sim::Machine &m)
{
    std::uint64_t n = 0;
    for (const char *kind : {"not_present", "numa_hint", "protection"})
        n += m.metrics().counter("kernel_faults", {{"kind", kind}}).value;
    return n;
}

/**
 * thp_churn's madvise schedule. The working set is cut into 4 MiB
 * windows; a window is either whole (THP-eligible, collapsible) or cut.
 * Cutting advises NOHUGEPAGE over the window's middle 2 MiB, whose
 * boundaries fall inside the two huge pages, so the kernel splits both.
 * Restoring advises NOHUGEPAGE over the whole window (merging the
 * pieces into one aligned VMA) and then HUGEPAGE, so khugepaged
 * collapses both 2 MiB ranges again on later ticks.
 *
 * The window order is a fixed pseudo-random sequence, the same for
 * every --seed: which windows get cut decides how many splits and
 * replica updates an iteration does, and that work should not swing
 * with the seed the way the access stream does.
 */
class MadviseChurn
{
  public:
    explicit MadviseChurn(const os::Process &proc) : rng_(0x7a11c0de5eedull)
    {
        constexpr std::uint64_t Window = 2 * LargePageSize;
        for (const auto &[start, vma] : proc.vmas()) {
            if (!vma.thpEnabled)
                continue;
            for (VirtAddr b = alignUp(vma.start, LargePageSize);
                 b + Window <= vma.end; b += Window)
                windows_.push_back(b);
        }
        cut_.assign(windows_.size(), false);
    }

    /** Flip @p n random windows; each madvise call runs in a span. */
    std::uint64_t
    step(os::Kernel &kernel, os::Process &proc, int n, SpanRecorder &rec)
    {
        constexpr std::uint64_t Window = 2 * LargePageSize;
        constexpr std::uint64_t Half = LargePageSize / 2;
        std::uint64_t calls = 0;
        auto advise = [&](VirtAddr start, std::uint64_t len,
                          os::Madvise advice) {
            rec.scope("os.vma", [&] {
                kernel.madvise(proc, start, len, advice);
            });
            ++calls;
        };
        for (int i = 0; i < n && !windows_.empty(); ++i) {
            std::size_t k = static_cast<std::size_t>(
                rng_.below(windows_.size()));
            VirtAddr b = windows_[k];
            if (!cut_[k]) {
                advise(b + Half, LargePageSize, os::Madvise::NoHuge);
            } else {
                advise(b, Window, os::Madvise::NoHuge);
                advise(b, Window, os::Madvise::Huge);
            }
            cut_[k] = !cut_[k];
        }
        return calls;
    }

  private:
    Rng rng_;
    std::vector<VirtAddr> windows_;
    std::vector<bool> cut_;
};

/** Run one fresh iteration of @p o's workload. */
IterResult
runIteration(const Options &o, const Shape &shape, bool traced,
             bool check_now, CheckLedger &ledger, SpanRecorder &last_spans,
             HostProbe &probe)
{
    const double probe_before = probe.latest();
    SpanRecorder rec(traced);
    IterResult res;
    res.traced = traced;
    Universe u;
    const bool pair = o.kind != WorkloadKind::ThpChurn;

    // ---- Set-up: machine, fragmentation, populate, placement --------
    auto t_setup = Clock::now();
    rec.scope("setup", [&] {
        sim::MachineConfig mcfg = benchMachine();
        os::KernelConfig kcfg;
        if (o.kind == WorkloadKind::ThpChurn) {
            kcfg.thp.khugepaged = true;
            kcfg.thp.kcompactd = true;
            kcfg.thp.splitPartial = true;
        }
        u.machine = std::make_unique<sim::Machine>(mcfg);
        u.mitosis = std::make_unique<core::MitosisBackend>(
            u.machine->physmem());
        u.kernel = std::make_unique<os::Kernel>(*u.machine, *u.mitosis,
                                                kcfg);
        sim::Machine &m = *u.machine;
        os::Kernel &k = *u.kernel;
        const int sockets = m.numSockets();

        if (o.kind == WorkloadKind::ThpChurn) {
            // Age the machine: every 2 MB block broken before any
            // allocation, so set-up degrades to 4 KB pages.
            rec.scope("mem.fragment", [&] {
                Rng frag(o.fragSeed);
                for (SocketId s = 0; s < sockets; ++s)
                    m.physmem().fragment(s, 1.0, frag);
            });
        }

        u.proc = &k.createProcess(o.name, 0);
        u.ctx = std::make_unique<os::ExecContext>(k, *u.proc);
        switch (o.kind) {
          case WorkloadKind::Walk4k:
            for (SocketId s = 0; s < sockets; ++s) {
                u.ctx->addThread(s);
                u.ctx->addThread(s);
            }
            break;
          case WorkloadKind::Populate4g:
            k.setDataPolicy(*u.proc, os::DataPolicy::Fixed, 0);
            k.setPtPlacement(*u.proc, pt::PtPlacement::Fixed, 1);
            u.ctx->addThread(0);
            break;
          case WorkloadKind::ThpChurn:
            for (SocketId s = 0; s < sockets; ++s)
                u.ctx->addThread(s);
            break;
        }

        workloads::WorkloadParams params;
        params.footprint = shape.footprint;
        params.seed = o.seed;
        params.thp = shape.thp;
        u.w = workloads::makeWorkload(shape.generator, params);
        rec.scope("os.populate", [&] { u.w->setup(*u.ctx); });

        if (o.kind == WorkloadKind::Populate4g)
            m.topology().addInterferer(1);
        if (o.kind == WorkloadKind::ThpChurn) {
            rec.scope("core.setup_replicate", [&] {
                u.mitosis->setReplicationMask(u.proc->roots(),
                                              u.proc->id(),
                                              SocketMask::all(sockets));
                k.reloadContexts(*u.proc);
            });
        }
    });
    res.setupS = secondsBetween(t_setup, Clock::now());

    sim::Machine &m = *u.machine;
    os::Kernel &k = *u.kernel;
    os::Process &proc = *u.proc;
    os::ExecContext &ctx = *u.ctx;
    const int threads = ctx.numThreads();
    res.setupFaults = kernelFaults(m);
    res.tableChunks = m.physmem().tableArenaStats().chunks;

    // Identical access streams: the second pass replays a clone taken
    // right after set-up; the shadows only regenerate the op counts.
    std::unique_ptr<workloads::Workload> second =
        pair ? u.w->clone() : nullptr;
    std::unique_ptr<workloads::Workload> shadow =
        check_now ? u.w->clone() : nullptr;
    std::unique_ptr<workloads::Workload> shadow2 =
        check_now && pair ? u.w->clone() : nullptr;
    std::unique_ptr<MadviseChurn> churn =
        pair ? nullptr : std::make_unique<MadviseChurn>(proc);

    // Every run() call, replayed later on the shadows.
    std::vector<std::pair<int, std::uint64_t>> calls;
    std::uint64_t all_accesses = 0;
    sim::PerfCounters timed;
    Counts counts;
    std::vector<VirtAddr> sample;
    auto run = [&](int stream, std::uint64_t ops) {
        workloads::Workload &w = stream == 0 ? *u.w : *second;
        calls.emplace_back(stream, ops);
        if (traced)
            drive(&ctx, w, threads, ops, rec, counts, &sample);
        else
            workloads::runInterleaved(ctx, w, ops);
    };
    // Fold the counters of a finished slice into the totals and start
    // the next slice from zero.
    auto close_slice = [&](bool in_timed) {
        sim::PerfCounters t = ctx.totals();
        all_accesses += t.accesses;
        if (in_timed)
            timed.add(t);
        Cycles rt = ctx.runtime();
        ctx.resetCounters();
        return rt;
    };

    ctx.resetCounters(); // set-up faults are not run-phase work
    run(0, shape.warmupOps);
    close_slice(false);

    const core::MitosisStats mstats0 = u.mitosis->stats();
    const os::thp::ThpStats tstats0 = k.thp().stats();
    const std::uint64_t fused0 = fusedOps(m);
    const std::uint64_t shoot0 = shootdowns(m);
    Cycles rt_base = 0;
    Cycles rt_mitosis = 0;

    // ---- Measured phase ----------------------------------------------
    auto t_measure = Clock::now();
    rec.scope("measured", [&] {
        if (pair) {
            run(0, shape.measureOps);
            rt_base = close_slice(true);
            if (o.kind == WorkloadKind::Walk4k) {
                rec.scope("core.replicate", [&] {
                    u.mitosis->setReplicationMask(
                        proc.roots(), proc.id(),
                        SocketMask::all(m.numSockets()));
                    k.reloadContexts(proc);
                });
            } else {
                rec.scope("core.migrate", [&] {
                    u.mitosis->migratePageTables(proc.roots(), proc.id(),
                                                 0);
                    k.reloadContexts(proc);
                });
            }
            run(1, shape.warmupOps);
            close_slice(true);
            run(1, shape.measureOps);
            rt_mitosis = close_slice(true);
        } else {
            const std::uint64_t slice =
                shape.measureOps / static_cast<std::uint64_t>(shape.phases);
            for (int p = 0; p < shape.phases; ++p) {
                run(0, slice);
                res.vmaCalls +=
                    churn->step(k, proc, shape.togglesPerPhase, rec);
                for (int t = 0; t < shape.ticksPerPhase; ++t)
                    rec.scope("os.thp_tick", [&] { k.thpTick(); });
            }
            close_slice(true);
        }
    });
    res.measuredS = secondsBetween(t_measure, Clock::now());

    res.probeNs = 0.5 * (probe_before + probe.nsPerKey());
    res.timed = timed;
    res.timedAccesses = timed.accesses;
    res.speedup = pair ? static_cast<double>(rt_base) /
                             static_cast<double>(rt_mitosis)
                       : 0.0;
    const core::MitosisStats &ms = u.mitosis->stats();
    const os::thp::ThpStats &ts = k.thp().stats();
    res.fusedOps = fusedOps(m) - fused0;
    res.shootdowns = shootdowns(m) - shoot0;
    res.replicaPagesCreated =
        ms.replicaPagesCreated - mstats0.replicaPagesCreated;
    res.eagerUpdates = ms.eagerUpdates - mstats0.eagerUpdates;
    res.thpCollapses = ts.collapses - tstats0.collapses;
    res.thpSplits = ts.splits - tstats0.splits;

    // ---- Determinism digest of the simulated state --------------------
    Digest dg;
    dg.add(timed);
    dg.add(static_cast<std::uint64_t>(rt_base));
    dg.add(static_cast<std::uint64_t>(rt_mitosis));
    dg.add(ms);
    dg.add(ts);
    res.digest = dg.value();

    // ---- Correctness checks -------------------------------------------
    Cycles attributed = 0;
    for (const auto &level : timed.walkCyclesAttr)
        for (Cycles c : level)
            attributed += c;
    ledger.expect(attributed == timed.walkCycles,
                  "walk-cycle attribution buckets sum to walkCycles");
    if (!pair) {
        ledger.expect(ms.hugeCollapses == ts.collapses,
                      "MitosisStats::hugeCollapses == ThpStats::collapses");
        ledger.expect(ms.hugeSplits == ts.splits,
                      "MitosisStats::hugeSplits == ThpStats::splits");
    }
    if (traced)
        ledger.expect(counts.generatedAccesses == all_accesses,
                      "simulated accesses == generated ops (traced)");
    if (check_now) {
        // Regenerate every call's ops on the shadow clones.
        SpanRecorder off(false);
        Counts expect;
        for (const auto &[stream, ops] : calls)
            drive(nullptr, stream == 0 ? *shadow : *shadow2, threads, ops,
                  off, expect, nullptr);
        ledger.expect(expect.generatedAccesses == all_accesses,
                      "simulated accesses == generated ops");

        check::CheckConfig ccfg;
        ccfg.enabled = true;
        ccfg.failFast = false;
        check::Checker checker(k, ccfg);
        checker.runAll("perfbench");
        for (const check::Violation &v : checker.violations())
            std::printf("vmcheck: %s\n", v.str().c_str());
        for (check::CheckClass cls :
             {check::CheckClass::ReplicaCoherence,
              check::CheckClass::VmaPteAgreement,
              check::CheckClass::FrameAccounting,
              check::CheckClass::Cr3AsidLiveness,
              check::CheckClass::ChargeConservation}) {
            bool clean = std::none_of(
                checker.violations().begin(), checker.violations().end(),
                [cls](const check::Violation &v) { return v.cls == cls; });
            ledger.expect(clean, std::string("vmcheck ") +
                                     check::checkClassName(cls));
        }
    }

    // ---- Traced extras: layer split and probes ------------------------
    if (traced) {
        res.counts = counts;
        res.measuredSelf = rec.selfTimes("measured");
        res.setupSelf = rec.selfTimes("setup");
        for (double d : rec.durations("os.thp_tick"))
            res.tickMs.push_back(d * 1e3);
        double layers = 0;
        for (const auto &[name, self] : res.measuredSelf)
            layers += self;
        double root = rec.rootTime("measured");
        ledger.expect(std::fabs(layers - root) <= 1e-9 * std::max(1.0, root),
                      "span self times add up to the measured phase");
        res.probes = probeLayers(m, ctx.coreOf(0), sample);
        last_spans = std::move(rec);
    }
    return res;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const std::vector<Metric> &metrics, const CheckLedger &ledger)
{
    for (const Metric &mt : metrics)
        std::printf("%-28s %.6g %s\n", mt.name.c_str(), mt.value, mt.unit);
    std::printf("checks: %llu run, %llu failed (failure share %.6g)\n",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()),
                ratio(static_cast<double>(ledger.failed()),
                      static_cast<double>(ledger.attempted())));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ledger.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The traced iteration whose measured phase is the median one. */
const IterResult &
medianTraced(const std::vector<IterResult> &iters)
{
    std::vector<const IterResult *> traced;
    for (const IterResult &r : iters)
        if (r.traced)
            traced.push_back(&r);
    std::sort(traced.begin(), traced.end(),
              [](const IterResult *a, const IterResult *b) {
                  return a->measuredS < b->measuredS;
              });
    return *traced[traced.size() / 2];
}

std::vector<Metric>
layerMetrics(const std::vector<IterResult> &iters)
{
    const IterResult &r = medianTraced(iters);
    std::vector<double> untraced;
    std::vector<double> traced;
    for (const IterResult &it : iters)
        (it.traced ? traced : untraced).push_back(it.measuredS);

    auto self = [&r](const char *name) {
        auto it = r.measuredSelf.find(name);
        return it == r.measuredSelf.end() ? 0.0 : it->second;
    };
    auto setup_self = [&r](const char *name) {
        auto it = r.setupSelf.find(name);
        return it == r.setupSelf.end() ? 0.0 : it->second;
    };
    const sim::PerfCounters &pc = r.timed;
    const double accesses = static_cast<double>(pc.accesses);
    const double l3_refs = static_cast<double>(
        pc.l3LocalHits + pc.l3RemoteHits + pc.dataDramLocal +
        pc.dataDramRemote + pc.ptDramLocal + pc.ptDramRemote);
    const double populate = setup_self("os.populate");
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    mem::SlabPoolStats slabs = mem::slabPoolStats();

    return {
        {"workloads.gen_s", self("workloads.gen"), "s"},
        {"workloads.gen_ns_per_op",
         1e9 * ratio(self("workloads.gen"), count(r.counts.generatedOps)),
         "ns"},
        {"sim.replay_s", self("sim.replay"), "s"},
        {"sim.replay_ns_per_access",
         1e9 * ratio(self("sim.replay"), accesses), "ns"},
        {"sim.fused_op_frac", ratio(count(r.fusedOps), accesses), "ratio"},
        {"sim.walks", count(pc.walks), "count"},
        {"sim.walk_refs_per_walk",
         ratio(count(pc.walkMemRefs), count(pc.walks)), "ratio"},
        {"sim.pt_remote_frac", pc.remotePtFraction(), "ratio"},
        {"tlb.miss_ratio", ratio(count(pc.tlbMisses), accesses), "ratio"},
        {"tlb.lookup_ns", r.probes.tlbLookupNs, "ns"},
        {"tlb.pwc_lookup_ns", r.probes.pwcLookupNs, "ns"},
        {"sim.walk_ns", r.probes.walkNs, "ns"},
        {"cache.access_ns", r.probes.cacheAccessNs, "ns"},
        {"cache.l3_hit_ratio",
         ratio(count(pc.l3LocalHits + pc.l3RemoteHits), l3_refs), "ratio"},
        {"os.populate_s", populate, "s"},
        {"os.page_faults", count(r.setupFaults), "count"},
        {"os.fault_ns", 1e9 * ratio(populate, count(r.setupFaults)), "ns"},
        {"mem.table_chunks", count(r.tableChunks), "count"},
        {"mem.arena_slabs", count(slabs.metaSlabs + slabs.tableSlabs),
         "count"},
        {"mem.fragment_s", setup_self("mem.fragment"), "s"},
        {"core.setup_replicate_s", setup_self("core.setup_replicate"), "s"},
        {"core.replicate_s", self("core.replicate"), "s"},
        {"core.migrate_s", self("core.migrate"), "s"},
        {"core.replica_pages_created", count(r.replicaPagesCreated),
         "count"},
        {"core.eager_updates", count(r.eagerUpdates), "count"},
        {"os.vma_s", self("os.vma"), "s"},
        {"os.vma_calls", count(r.vmaCalls), "count"},
        {"os.shootdowns", count(r.shootdowns), "count"},
        {"os.thp_tick_s", self("os.thp_tick"), "s"},
        {"os.thp_tick_ms_p50", percentile(r.tickMs, 0.5), "ms"},
        {"os.thp_tick_ms_p90", percentile(r.tickMs, 0.9), "ms"},
        {"os.thp_ticks", count(r.tickMs.size()), "count"},
        {"os.thp_collapses", count(r.thpCollapses), "count"},
        {"os.thp_splits", count(r.thpSplits), "count"},
        {"host.unattributed_s", self("measured"), "s"},
        {"host.measured_s", r.measuredS, "s"},
        {"host.trace_overhead", ratio(median(traced), median(untraced)),
         "ratio"},
        {"host.probe_ns", r.probeNs, "ns"},
    };
}

std::vector<Metric>
endToEndMetrics(const std::vector<IterResult> &iters, const Shape &shape)
{
    std::vector<double> setup, setup_wall;
    std::vector<double> rate, rate_wall;
    std::vector<double> probe;
    for (const IterResult &r : iters) {
        const double accesses = static_cast<double>(r.timedAccesses);
        setup.push_back(r.toRef(r.setupS));
        setup_wall.push_back(r.setupS);
        rate.push_back(ratio(accesses, r.toRef(r.measuredS)));
        rate_wall.push_back(ratio(accesses, r.measuredS));
        probe.push_back(r.probeNs);
    }
    std::printf("# wall clock: setup_s %.6g s, sim_accesses_per_s %.6g 1/s; "
                "host probe %.4g ns/key (reference %.4g)\n",
                median(setup_wall), median(rate_wall), median(probe),
                HostProbe::RefNsPerKey);
    // No paper number exists for thp_churn: its error is reported as a
    // constant 1 (no claim), never as a fidelity figure.
    double err = shape.paperSpeedup > 0
                     ? std::fabs(iters.front().speedup /
                                     shape.paperSpeedup -
                                 1.0)
                     : 1.0;
    return {
        {"setup_s", median(setup), "s"},
        {"sim_accesses_per_s", median(rate), "1/s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"paper_err", err, "ratio"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    requireReleaseBuild();
    requireDefaultPaths();
    const Shape shape = shapeOf(o);

    std::printf("# mitobench workload=%s seed=%llu frag_seed=%llu "
                "seconds=%g trace=%d length=%s\n",
                o.name.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(o.fragSeed), o.seconds,
                o.trace ? 1 : 0, o.shortRun ? "short" : "full");
    std::printf("# host nproc=%ld compiler=%s build=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), MITOBENCH_CXX_COMPILER,
                MITOBENCH_BUILD_TYPE);
    std::fflush(stdout);

    CheckLedger ledger;
    std::vector<IterResult> iters;
    SpanRecorder spans(false);
    HostProbe probe;
    const int min_iters = o.shortRun ? (o.trace ? 2 : 1) : 3;
    auto start = Clock::now();
    int n_traced = 0;
    while (static_cast<int>(iters.size()) < min_iters ||
           secondsBetween(start, Clock::now()) < o.seconds ||
           (o.trace && (n_traced == 0 ||
                        n_traced == static_cast<int>(iters.size())))) {
        // Traced runs alternate untraced and traced iterations so the
        // trace overhead is measured under the same host conditions.
        bool traced = o.trace && iters.size() % 2 == 1;
        IterResult r = runIteration(o, shape, traced, iters.empty(),
                                    ledger, spans, probe);
        n_traced += traced ? 1 : 0;
        std::printf("# iter %zu %s setup=%.4fs measured=%.4fs probe=%.3fns "
                    "accesses=%llu speedup=%.6f digest=%016llx\n",
                    iters.size(), traced ? "traced" : "plain", r.setupS,
                    r.measuredS, r.probeNs,
                    static_cast<unsigned long long>(r.timedAccesses),
                    r.speedup, static_cast<unsigned long long>(r.digest));
        std::fflush(stdout);
        if (!iters.empty()) {
            ledger.expect(r.digest == iters.front().digest,
                          traced ? "traced digest == untraced digest"
                                 : "digest repeats across iterations");
        }
        iters.push_back(std::move(r));
    }

    std::printf("digest %s seed=%llu %016llx speedup=%.6f\n",
                o.name.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(iters.front().digest),
                iters.front().speedup);
    if (!o.spansPath.empty() && o.trace && !spans.write(o.spansPath))
        std::fprintf(stderr, "mitobench: cannot write %s\n",
                     o.spansPath.c_str());

    printResult(o.trace ? layerMetrics(iters) : endToEndMetrics(iters, shape),
                ledger);
    return ledger.failed() == 0 ? 0 : 1;
}
