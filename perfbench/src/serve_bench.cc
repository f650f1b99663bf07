/**
 * @file
 * Serving benchmark for the ServingEngine W4A8 path
 * (mantFusedAttentionSetup(64), paged MANT4 KV).
 *
 * One process runs one seeded workload for a fixed measured window,
 * checks its outputs, and prints the end-to-end metrics (untraced
 * binary) or the per-layer metrics (traced binary, built with the
 * link-time wrappers in wraps.cc). The last stdout line is one JSON
 * object that perfbench/run.py turns into the benchmark result.
 *
 * Usage:
 *   perfbench_serve --workload NAME --seed N --seconds S
 *                   --workdir DIR [--trace-out FILE]
 *
 * Exit status: 0 when every correctness gate held, 1 when one failed
 * (the JSON line is still printed, with "correct": false), 2 on a
 * usage or environment error (nothing printed on stdout's last line).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "bench_util.h"
#include "core/kv_pages.h"
#include "core/kv_panels.h"
#include "core/packed_tiles.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "model/model_file.h"
#include "model/quant_setup.h"
#include "model/transformer.h"
#include "serve/serving_engine.h"
#include "tensor/rng.h"
#include "trace.h"

namespace {

using namespace mant;
namespace tr = perfbench::trace;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

/** Engine threads: 2, never below 2 (attention/GEMM parallelism only
 *  shows with more than one thread). On a 4-vCPU box shared with other
 *  tenants, 4 engine threads made every parallel region wait for the
 *  thread that lost its core; 2 leave the scheduler room to move them. */
constexpr int kEngineThreads = 2;
constexpr int64_t kGroup = 64; ///< weight and KV quantization group
/** Traced run: spans are kept for every second scheduler step, which
 *  bounds span memory (about 50 MB on the busiest workload) and the
 *  tracing overhead; counters still see every step. */
constexpr int64_t kTraceStride = 2;
/** TTFT tail cap (see tailOf). Past it, a tail on a shared 4-vCPU
 *  host mostly measures other tenants, not the engine. */
constexpr double kTtftTailPct = 90;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class ModelKind
{
    Chat,  ///< 1024d x 2L, vocab 4096: packed weights exceed L2
    Bench, ///< bench::servingBenchProfile(), 512d x 2L, vocab 256
};

struct WorkloadSpec
{
    std::string name;
    ModelKind model = ModelKind::Bench;
    bool fromFile = false;  ///< boot via LoadedModel::load
    bool closedLoop = true;
    int64_t clients = 0;    ///< closed loop
    double ratePerS = 0;    ///< open loop Poisson rate
    int64_t maxStreams = 0;
    int64_t promptMin = 0, promptMax = 0;
    int64_t outMin = 0, outMax = 0;
    bool skewShort = false; ///< exponential lengths instead of uniform
    int64_t chunk = 0;      ///< prefillChunkTokens
    /** Page pool as a share of maxStreams x worst-case pages per
     *  stream; 1.0 sizes it for every slot (eviction impossible). */
    double poolShare = 1.0;
    double watermarkStreams = 0; ///< watermark, in worst-case streams
    /** Recurring page-allocation fault storms (ServingConfig::faults):
     *  every `faultPeriod` scheduler rounds, allocations fail for
     *  `faultLen` rounds; the streams hit are preempted and replayed. */
    int64_t faultPeriod = 0, faultLen = 0;
    int64_t agingSteps = 0;
    double highPriorityShare = 0;
    double cancelShare = 0;
    double warmupS = 0;
    int setupReps = 3; ///< timed set-ups, after one untimed warm-up
    double ttftLimitMs = 0, itlLimitMs = 0; ///< SLO limits
    /** ITL tail cap (see tailOf): inside the mode of gaps that wait
     *  behind a prefill chunk, clear of the edges where that mode
     *  starts or where two streams' chunks land in one step. */
    double itlTailPct = 95;
    int oracleSamples = 3;
};

WorkloadSpec
workloadSpec(const std::string &name)
{
    WorkloadSpec w;
    w.name = name;
    if (name == "chat_decode") {
        w.model = ModelKind::Chat;
        w.clients = 16;
        w.maxStreams = 16;
        w.promptMin = 8, w.promptMax = 32;
        w.outMin = 96, w.outMax = 160;
        w.chunk = 32;
        w.warmupS = 2.0;
        w.setupReps = 7;
        w.ttftLimitMs = 500, w.itlLimitMs = 150;
        w.oracleSamples = 2;
    } else if (name == "long_context") {
        w.model = ModelKind::Bench;
        w.clients = 8;
        w.maxStreams = 8;
        w.promptMin = 512, w.promptMax = 1024;
        w.outMin = 16, w.outMax = 32;
        w.chunk = 640;
        w.warmupS = 8.0;
        w.itlTailPct = 90;
        w.setupReps = 9;
        w.ttftLimitMs = 6000, w.itlLimitMs = 800;
        w.oracleSamples = 2;
    } else if (name == "open_loop_mixed") {
        w.model = ModelKind::Bench;
        w.fromFile = true;
        w.closedLoop = false;
        w.ratePerS = 10.0;
        w.maxStreams = 16;
        w.promptMin = 8, w.promptMax = 384;
        w.outMin = 4, w.outMax = 128;
        w.skewShort = true;
        w.chunk = 32;
        w.poolShare = 0.12;
        w.watermarkStreams = 0.75;
        w.faultPeriod = 50, w.faultLen = 1;
        w.agingSteps = 8;
        w.highPriorityShare = 0.25;
        w.cancelShare = 0.05;
        w.warmupS = 1.0;
        w.setupReps = 101;
        w.ttftLimitMs = 500, w.itlLimitMs = 100;
        w.oracleSamples = 3;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

ModelProfile
chatProfile()
{
    ModelProfile p = bench::servingBenchProfile();
    p.name = "perfbench-chat";
    p.simDims.nLayers = 2;
    p.simDims.dModel = 1024;
    p.simDims.nHeads = 8;
    p.simDims.dFfn = 2048;
    p.simDims.vocab = 4096;
    p.archDims = p.simDims;
    p.seed = 33;
    return p;
}

// ---------------------------------------------------------------------
// Seeded request generation
// ---------------------------------------------------------------------

/** One generated request. The engine sees only `req`. */
struct Planned
{
    GenRequest req;
    int64_t key = 0;     ///< stable id: client * 1e6 + index, or arrival
    int64_t client = -1; ///< closed loop
    double dueS = 0;     ///< open loop: offset from the run start
    int64_t cancelAfter = 0; ///< cancel once this many tokens arrived
};

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Length at quantile q in [0, 1): uniform over [lo, hi], or (skewed
 *  short) exponential with mean (hi - lo) / 5, truncated at hi. */
int64_t
lengthAt(double q, int64_t lo, int64_t hi, bool skewShort)
{
    if (!skewShort)
        return std::min(hi, lo + static_cast<int64_t>(
                                     q * static_cast<double>(hi - lo + 1)));
    const double mean = static_cast<double>(hi - lo) / 5.0;
    return std::min(hi, lo + static_cast<int64_t>(-std::log1p(-q) * mean));
}

/**
 * Stratified quantiles: one jittered draw from each of n equal slices
 * of [0, 1), in seeded order. Requests are generated in blocks that
 * share one such set, so every seed offers the same load — the block's
 * lengths (and open-loop gaps) cover the whole distribution — while
 * which request gets which length, and the tokens, stay seeded.
 */
std::vector<double>
stratified(uint64_t seed, int64_t n)
{
    Rng rng(seed);
    std::vector<double> q(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        q[static_cast<size_t>(i)] =
            (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
    for (int64_t i = n - 1; i > 0; --i)
        std::swap(q[static_cast<size_t>(i)],
                  q[rng.uniformInt(static_cast<uint64_t>(i + 1))]);
    return q;
}

/** Quantiles of request `pos` in block `block` of stream `stream`. */
struct BlockDraw
{
    double prompt = 0, out = 0, gap = 0;
};

BlockDraw
blockDraw(uint64_t seed, int64_t stream, int64_t block, int64_t blockSize,
          int64_t pos)
{
    const uint64_t base = mix(mix(seed, static_cast<uint64_t>(stream) + 7),
                              static_cast<uint64_t>(block) + 1);
    const auto at = [&](uint64_t field) {
        return stratified(mix(base, field), blockSize)[static_cast<size_t>(pos)];
    };
    return {at(1), at(2), at(3)};
}

Planned
planRequest(const WorkloadSpec &w, uint64_t seed, int64_t stream,
            int64_t index, const BlockDraw &q, int64_t vocab)
{
    Rng rng(mix(mix(seed, static_cast<uint64_t>(stream) + 1),
                static_cast<uint64_t>(index) + 1));
    Planned p;
    const int64_t plen =
        lengthAt(q.prompt, w.promptMin, w.promptMax, w.skewShort);
    p.req.prompt.resize(static_cast<size_t>(plen));
    for (auto &t : p.req.prompt)
        t = static_cast<int32_t>(
            rng.uniformInt(static_cast<uint64_t>(vocab)));
    p.req.maxNewTokens = lengthAt(q.out, w.outMin, w.outMax, w.skewShort);
    p.req.priority = rng.uniform() < w.highPriorityShare ? 1 : 0;
    if (rng.uniform() < w.cancelShare && p.req.maxNewTokens > 4)
        p.cancelAfter = 2 + static_cast<int64_t>(rng.uniformInt(
                                static_cast<uint64_t>(
                                    std::min<int64_t>(p.req.maxNewTokens - 2,
                                                      16))));
    return p;
}

/** Requests per closed-loop client: far more than one window uses. */
constexpr int64_t kPerClient = 256;
/** Open-loop requests per stratified block. */
constexpr int64_t kOpenBlock = 16;
/** Longest wait for in-flight requests after the window closes. */
constexpr double kDrainLimitS = 20.0;

/**
 * The whole request list for a run. Closed loop: kPerClient requests
 * per client plus each client's start offset. Open loop: Poisson
 * arrivals over [0, horizonS).
 */
struct RequestPlan
{
    std::vector<std::vector<Planned>> perClient;
    std::vector<double> clientStartS;
    std::vector<Planned> arrivals;
    uint64_t hash = 0;
};

void
fnvBytes(uint64_t &h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

void
hashPlanned(uint64_t &h, const Planned &p)
{
    fnvBytes(h, &p.key, sizeof p.key);
    const int64_t dueUs = std::llround(p.dueS * 1e6);
    fnvBytes(h, &dueUs, sizeof dueUs);
    fnvBytes(h, p.req.prompt.data(),
             p.req.prompt.size() * sizeof(int32_t));
    fnvBytes(h, &p.req.maxNewTokens, sizeof p.req.maxNewTokens);
    fnvBytes(h, &p.req.priority, sizeof p.req.priority);
    fnvBytes(h, &p.cancelAfter, sizeof p.cancelAfter);
}

RequestPlan
makePlan(const WorkloadSpec &w, uint64_t seed, double horizonS,
         int64_t vocab)
{
    RequestPlan plan;
    plan.hash = kFnvBasis;
    if (w.closedLoop) {
        Rng start(mix(seed, 0xc11e));
        for (int64_t c = 0; c < w.clients; ++c) {
            // Staggered first sends keep the clients from finishing in
            // lock step for the whole run.
            plan.clientStartS.push_back(start.uniform() * w.warmupS / 2);
            std::vector<Planned> list;
            for (int64_t k = 0; k < kPerClient; ++k) {
                // Request k of every client forms one block.
                Planned p = planRequest(
                    w, seed, c, k, blockDraw(seed, 0, k, w.clients, c),
                    vocab);
                p.key = c * 1000000 + k;
                p.client = c;
                hashPlanned(plan.hash, p);
                list.push_back(std::move(p));
            }
            fnvBytes(plan.hash, &plan.clientStartS.back(), sizeof(double));
            plan.perClient.push_back(std::move(list));
        }
    } else {
        // Poisson arrivals: exponential gaps, stratified per block.
        double t = 0;
        for (int64_t i = 0;; ++i) {
            const BlockDraw q = blockDraw(seed, 1, i / kOpenBlock,
                                          kOpenBlock, i % kOpenBlock);
            t += -std::log1p(-q.gap) / w.ratePerS;
            if (t >= horizonS)
                break;
            Planned p = planRequest(w, seed, 1 << 20, i, q, vocab);
            p.key = i;
            p.dueS = t;
            hashPlanned(plan.hash, p);
            plan.arrivals.push_back(std::move(p));
        }
    }
    return plan;
}

// ---------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** VmHWM / VmRSS of this process, in MB (0 when unreadable). */
double
procStatusMb(const char *field)
{
    std::ifstream f("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(f, line)) {
        if (line.rfind(key, 0) == 0) {
            std::istringstream is(line.substr(key.size()));
            double kb = 0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

/** Reset VmHWM to the current RSS (Linux clear_refs "5"). */
bool
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return static_cast<bool>(f);
}

struct Percentile
{
    double value = 0;
    double pct = 0;
    int64_t samples = 0;
    int64_t beyond = 0;
};

/** Nearest-rank percentile. */
Percentile
percentileOf(std::vector<double> v, double pct)
{
    Percentile r;
    r.pct = pct;
    r.samples = static_cast<int64_t>(v.size());
    if (v.empty())
        return r;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<int64_t>(v.size());
    int64_t idx = static_cast<int64_t>(std::ceil(pct / 100.0 *
                                                 static_cast<double>(n))) -
                  1;
    idx = std::clamp<int64_t>(idx, 0, n - 1);
    r.value = v[static_cast<size_t>(idx)];
    r.beyond = n - idx - 1;
    return r;
}

/** The tail: the highest percentile with at least ten samples beyond
 *  it (the 11th-largest sample), capped at `cap` once there are enough
 *  samples for the cap itself to have ten beyond it. */
Percentile
tailOf(std::vector<double> v, double cap)
{
    Percentile r;
    const auto n = static_cast<int64_t>(v.size());
    r.samples = n;
    if (n == 0)
        return r;
    std::sort(v.begin(), v.end());
    // Nearest rank of the cap, but never past the 11th-largest sample.
    const auto capIdx = static_cast<int64_t>(
                            std::ceil(cap / 100.0 * static_cast<double>(n))) -
                        1;
    const int64_t idx = std::clamp<int64_t>(std::min(capIdx, n - 11), 0, n - 1);
    r.value = v[static_cast<size_t>(idx)];
    r.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
    r.beyond = n - idx - 1;
    return r;
}

// ---------------------------------------------------------------------
// Engine set-up
// ---------------------------------------------------------------------

/** Worst-case pages one stream can pin (bench_serving's sizing rule):
 *  K panels of 8 rows and V windows of `group` rows, per (layer, head). */
int64_t
worstPagesPerStream(const ArchDims &d, int64_t group, int64_t maxRows,
                    int64_t pageBytes)
{
    const int64_t kBlock = KPanelStore::blockBytesFor(d.headDim(), group);
    const int64_t vBlock = VPanelStore::blockBytesFor(d.headDim(), group);
    const auto ceilDiv = [](int64_t a, int64_t b) { return (a + b - 1) / b; };
    const int64_t pagesPerCache =
        ceilDiv(ceilDiv(maxRows, kTilePanelCols), pageBytes / kBlock) +
        ceilDiv(ceilDiv(maxRows, group), pageBytes / vBlock);
    return pagesPerCache * d.nLayers * d.nHeads;
}

ServingConfig
engineConfig(const WorkloadSpec &w, const ArchDims &d)
{
    const int64_t pageBytes =
        std::max(KPanelStore::blockBytesFor(d.headDim(), kGroup),
                 VPanelStore::blockBytesFor(d.headDim(), kGroup));
    const int64_t perStream = worstPagesPerStream(
        d, kGroup, w.promptMax + w.outMax, pageBytes);
    ServingConfig cfg;
    cfg.maxStreams = w.maxStreams;
    cfg.prefillChunkTokens = w.chunk;
    cfg.pageBytes = pageBytes;
    cfg.pagePoolPages = std::max<int64_t>(
        perStream + 1,
        static_cast<int64_t>(w.poolShare *
                             static_cast<double>(w.maxStreams * perStream)));
    cfg.freePageWatermark = static_cast<int64_t>(
        w.watermarkStreams * static_cast<double>(perStream));
    cfg.agingSteps = w.agingSteps;
    cfg.faults.failPeriod = w.faultPeriod;
    cfg.faults.failLen = w.faultLen;
    return cfg;
}

/** The model and engine under test, however they were built. */
struct Rig
{
    std::unique_ptr<ModelWeights> weights;     ///< build path
    std::unique_ptr<Transformer> built;        ///< build path
    std::shared_ptr<LoadedModel> loaded;       ///< load path
    std::unique_ptr<ServingEngine> engine;

    Transformer &
    model()
    {
        return loaded ? loaded->transformer() : *built;
    }
};

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct Track
{
    const Planned *plan = nullptr;
    RequestId id = -1;
    double sentS = 0;   ///< when due (open loop) / sent (closed loop)
    bool inWindow = false;
    double firstTokS = -1, lastDelivS = -1;
    double queueWaitS = -1;
    size_t seen = 0;
    bool evicted = false;
    bool timedOut = false; ///< cancelled by the drain time limit
    bool terminal = false;
    RequestState state = RequestState::Queued;
};

struct JsonOut
{
    std::ostringstream os;
    bool first = true;

    void
    key(const std::string &k)
    {
        os << (first ? "" : ", ") << '"' << k << "\": ";
        first = false;
    }
};

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** `s` as a JSON string literal. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + '"';
}

uint64_t
fnvTokens(const std::vector<int32_t> &toks, size_t n)
{
    uint64_t h = kFnvBasis;
    fnvBytes(h, toks.data(), std::min(n, toks.size()) * sizeof(int32_t));
    return h;
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    std::string workdir;
    std::string traceOut;
};

int
run(const Args &args)
{
    const WorkloadSpec w = workloadSpec(args.workload);
    const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    const int threads = std::max(2, std::min(kEngineThreads, nproc));
    setMaxThreads(threads);

    const ModelProfile profile = w.model == ModelKind::Chat
                                     ? chatProfile()
                                     : bench::servingBenchProfile();
    const ArchDims &d = profile.simDims;
    const QuantSetup setup = mantFusedAttentionSetup(kGroup);
    const ServingConfig cfg = engineConfig(w, d);
    const double horizonS = w.warmupS + args.seconds;
    const RequestPlan plan = makePlan(w, args.seed, horizonS, d.vocab);

    std::printf("perfbench %s seed %llu: %s, %lld threads (nproc %d), "
                "SIMD %s, %s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                kTraced ? "traced" : "untraced",
                static_cast<long long>(threads), nproc,
                simdPathName(activeSimdPath()),
                w.closedLoop ? "closed loop" : "open loop");
    std::printf("model %lldd x %lldL, %lld heads, ffn %lld, vocab %lld; "
                "pool %lld pages x %lld B, watermark %lld, chunk %lld\n",
                static_cast<long long>(d.dModel),
                static_cast<long long>(d.nLayers),
                static_cast<long long>(d.nHeads),
                static_cast<long long>(d.dFfn),
                static_cast<long long>(d.vocab),
                static_cast<long long>(cfg.pagePoolPages),
                static_cast<long long>(cfg.pageBytes),
                static_cast<long long>(cfg.freePageWatermark),
                static_cast<long long>(cfg.prefillChunkTokens));
    std::printf("request list hash %016llx\n",
                static_cast<unsigned long long>(plan.hash));

    // ---- set-up: input generation (untimed), then engine ready (timed)
    Rig rig;
    std::string modelPath;
    rig.weights = std::make_unique<ModelWeights>(
        ModelWeights::generate(profile, 1152));
    if (w.fromFile) {
        modelPath = args.workdir + "/model-" + std::to_string(getpid()) +
                    ".mant";
        exportModelToFile(modelPath, *rig.weights, setup);
        rig.weights.reset();
    }
    // One untimed warm-up set-up first: the first set-ups of a fresh
    // process run up to twice as slow as the rest while the allocator
    // and the page cache settle.
    std::vector<double> setupS;
    tr::setSampleStride(kTraceStride);
    for (int r = -1; r < w.setupReps; ++r) {
        tr::setRecording(kTraced && r >= 0);
        rig.engine.reset();
        rig.built.reset();
        rig.loaded.reset();
        const tr::Scope span(tr::Name::BenchSetup);
        const double t0 = nowS();
        if (w.fromFile) {
            rig.loaded = LoadedModel::load(modelPath);
            rig.engine = std::make_unique<ServingEngine>(rig.loaded, cfg);
        } else {
            rig.built = std::make_unique<Transformer>(*rig.weights, setup);
            rig.engine = std::make_unique<ServingEngine>(*rig.built, cfg);
        }
        if (r >= 0)
            setupS.push_back(nowS() - t0);
    }
    tr::setRecording(false);
    if (!modelPath.empty())
        std::remove(modelPath.c_str());
    // Hand the discarded set-ups' memory back, so the RSS taken next
    // counts only what the engine holds and serve_rss_mb does not
    // depend on how much freed heap serving happened to reuse.
    malloc_trim(0);
    const double peakSetupMb = procStatusMb("VmHWM");
    const double rssAfterSetupMb = procStatusMb("VmRSS");
    const bool hwmReset = resetPeakRss();

    // ---- measured run
    ServingEngine &engine = *rig.engine;
    std::vector<Track> tracks;
    tracks.reserve(w.closedLoop ? static_cast<size_t>(w.clients * kPerClient)
                                : plan.arrivals.size());
    std::vector<size_t> inflight;
    std::vector<int64_t> nextIdx(static_cast<size_t>(w.clients), 0);
    std::vector<double> lagMs, stepMs, itlMs;
    bool escaped = false;
    std::string escapedWhat;

    const double t0 = nowS();
    const double winStart = t0 + w.warmupS;
    const double winEnd = winStart + args.seconds;
    int64_t windowTokens = 0, windowSteps = 0;
    ServingEngine::Stats statsAtStart{}, statsAtEnd{};
    int64_t pagesAtStart[3] = {0, 0, 0};
    bool inWin = false, draining = false;
    size_t nextArrival = 0;

    const auto submit = [&](const Planned &p, double sentS) {
        Track t;
        t.plan = &p;
        t.id = engine.submit(p.req);
        t.sentS = sentS;
        t.inWindow = sentS >= winStart && sentS < winEnd;
        tracks.push_back(t);
        inflight.push_back(tracks.size() - 1);
    };
    std::vector<bool> clientStarted(static_cast<size_t>(w.clients), false);

    while (true) {
        double now = nowS();
        if (!inWin && !draining && now >= winStart) {
            inWin = true;
            statsAtStart = engine.stats();
            pagesAtStart[0] = tr::gPages.allocs;
            pagesAtStart[1] = tr::gPages.frees;
            pagesAtStart[2] = tr::gPages.allocFailures;
            tr::setRecording(kTraced);
        }
        if (!draining && now >= winEnd) {
            draining = true;
            inWin = false;
            tr::setRecording(false);
            statsAtEnd = engine.stats();
        }
        if (!draining) {
            if (w.closedLoop) {
                for (int64_t c = 0; c < w.clients; ++c) {
                    const double due =
                        t0 + plan.clientStartS[static_cast<size_t>(c)];
                    if (!clientStarted[static_cast<size_t>(c)] && now >= due) {
                        clientStarted[static_cast<size_t>(c)] = true;
                        submit(plan.perClient[static_cast<size_t>(c)][0], due);
                        nextIdx[static_cast<size_t>(c)] = 1;
                    }
                }
            } else {
                while (nextArrival < plan.arrivals.size() &&
                       t0 + plan.arrivals[nextArrival].dueS <= now) {
                    const double due = t0 + plan.arrivals[nextArrival].dueS;
                    if (due >= winStart && due < winEnd)
                        lagMs.push_back((now - due) * 1e3);
                    submit(plan.arrivals[nextArrival], due);
                    ++nextArrival;
                }
            }
        }
        if (draining && now > winEnd + kDrainLimitS) {
            // A backlog this deep means the engine fell far behind the
            // offered load; stop waiting and count what is left as
            // failed rather than overrun the run's time limit.
            for (size_t i : inflight) {
                Track &tk = tracks[i];
                engine.cancel(tk.id);
                tk.timedOut = tk.terminal = true;
                tk.state = engine.state(tk.id);
            }
            inflight.clear();
        }
        if (engine.idle()) {
            if (draining)
                break;
            // Nothing to run until the next send is due.
            double next = winEnd;
            if (!w.closedLoop && nextArrival < plan.arrivals.size())
                next = std::min(next, t0 + plan.arrivals[nextArrival].dueS);
            for (int64_t c = 0; c < w.clients; ++c)
                if (!clientStarted[static_cast<size_t>(c)])
                    next = std::min(
                        next, t0 + plan.clientStartS[static_cast<size_t>(c)]);
            if (next > now)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(next - now));
            continue;
        }

        const double stepStart = nowS();
        try {
            engine.step();
        } catch (const std::exception &e) {
            escaped = true;
            escapedWhat = e.what();
            break;
        }
        const double t = nowS();
        if (inWin && t <= winEnd) {
            stepMs.push_back((t - stepStart) * 1e3);
            ++windowSteps;
        }

        for (size_t i = 0; i < inflight.size();) {
            Track &tk = tracks[inflight[i]];
            const std::vector<int32_t> &out = engine.output(tk.id);
            RequestState st = engine.state(tk.id);
            if (tk.queueWaitS < 0 && (st != RequestState::Queued ||
                                      !out.empty()))
                tk.queueWaitS = std::max(0.0, stepStart - tk.sentS);
            if (out.size() > tk.seen) {
                if (tk.seen == 0)
                    tk.firstTokS = t;
                else if (tk.inWindow)
                    itlMs.push_back((t - tk.lastDelivS) * 1e3);
                tk.lastDelivS = t;
                if (t >= winStart && t <= winEnd)
                    windowTokens += static_cast<int64_t>(out.size() - tk.seen);
                tk.seen = out.size();
            }
            if (st == RequestState::Preempted)
                tk.evicted = true;
            if (tk.plan->cancelAfter > 0 && !isTerminal(st) &&
                static_cast<int64_t>(out.size()) >= tk.plan->cancelAfter) {
                engine.cancel(tk.id);
                st = engine.state(tk.id);
            }
            if (!isTerminal(st)) {
                ++i;
                continue;
            }
            tk.terminal = true;
            tk.state = st;
            const int64_t client = tk.plan->client;
            inflight[i] = inflight.back();
            inflight.pop_back();
            if (w.closedLoop && !draining) {
                int64_t &k = nextIdx[static_cast<size_t>(client)];
                if (k < kPerClient)
                    submit(plan.perClient[static_cast<size_t>(client)]
                                         [static_cast<size_t>(k++)],
                           t);
            }
        }
    }
    tr::setRecording(false);
    const double endPeakMb = procStatusMb("VmHWM");

    // ---- correctness gates
    std::vector<std::string> violations;
    if (escaped)
        violations.push_back("exception escaped step(): " + escapedWhat);
    for (const Track &tk : tracks)
        if (!tk.terminal && !escaped) {
            violations.push_back("request left non-terminal after drain");
            break;
        }
    const KvPageAllocator *pool = engine.pagePool();
    if (!pool)
        violations.push_back("no shared KV page pool");
    else if (!escaped && pool->inUsePages() != 0)
        violations.push_back("page pool not drained: " +
                             std::to_string(pool->inUsePages()) +
                             " pages in use");

    // Oracle sample: seeded picks among Done requests, plus one evicted
    // and one cancelled request when the run had any. Cancelled
    // outputs must be an exact prefix of the oracle's.
    std::vector<size_t> done, evictedDone, cancelled;
    for (size_t i = 0; i < tracks.size(); ++i) {
        if (tracks[i].state == RequestState::Done) {
            if (static_cast<int64_t>(tracks[i].seen) !=
                tracks[i].plan->req.maxNewTokens)
                violations.push_back("request " +
                                     std::to_string(tracks[i].plan->key) +
                                     " finished with the wrong length");
            done.push_back(i);
            if (tracks[i].evicted)
                evictedDone.push_back(i);
        } else if (tracks[i].state == RequestState::Cancelled &&
                   !tracks[i].timedOut && tracks[i].seen > 0) {
            cancelled.push_back(i);
        }
    }
    std::vector<size_t> sample;
    Rng pick(mix(args.seed, 0x0ac1e));
    for (int s = 0; s < w.oracleSamples && !done.empty(); ++s)
        sample.push_back(done[pick.uniformInt(done.size())]);
    if (!evictedDone.empty())
        sample.push_back(evictedDone[pick.uniformInt(evictedDone.size())]);
    if (!cancelled.empty())
        sample.push_back(cancelled[pick.uniformInt(cancelled.size())]);
    if (!escaped && sample.empty())
        violations.push_back("no completed request to check");
    int oracleChecked = 0;
    for (size_t i : sample) {
        const Track &tk = tracks[i];
        const std::vector<int32_t> &out = engine.output(tk.id);
        const std::vector<int32_t> want = bench::serialGreedyOracle(
            rig.model(), tk.plan->req.prompt,
            static_cast<int64_t>(out.size()));
        ++oracleChecked;
        if (out != want)
            violations.push_back("request " + std::to_string(tk.plan->key) +
                                 " differs from the serial oracle");
    }

    // Per-request token digests (compared traced vs untraced by
    // run.py). Cancelled outputs are cut at the cancel point, which is
    // fixed by the plan; Failed/Expired outputs are left out.
    std::ostringstream digests;
    uint64_t checksum = kFnvBasis;
    {
        std::vector<std::pair<int64_t, uint64_t>> dg;
        for (const Track &tk : tracks) {
            size_t n = 0;
            if (tk.state == RequestState::Done)
                n = tk.seen;
            else if (tk.state == RequestState::Cancelled && !tk.timedOut)
                n = std::min<size_t>(tk.seen,
                                     static_cast<size_t>(tk.plan->cancelAfter));
            else
                continue;
            dg.emplace_back(tk.plan->key, fnvTokens(engine.output(tk.id), n));
        }
        std::sort(dg.begin(), dg.end());
        bool first = true;
        for (const auto &[k, h] : dg) {
            digests << (first ? "" : ", ") << '"' << k << "\": \"" << std::hex
                    << h << std::dec << '"';
            fnvBytes(checksum, &h, sizeof h);
            first = false;
        }
    }

    // ---- end-to-end metrics over requests sent in the window
    std::vector<double> ttftMs, queueMs;
    int64_t sent = 0, nDone = 0, nFailed = 0, nCancelled = 0, sloMet = 0;
    for (const Track &tk : tracks) {
        if (!tk.inWindow)
            continue;
        ++sent;
        nDone += tk.state == RequestState::Done;
        nCancelled += tk.state == RequestState::Cancelled && !tk.timedOut;
        const bool failed = tk.state == RequestState::Failed ||
                            tk.state == RequestState::Expired || tk.timedOut;
        nFailed += failed;
        if (tk.queueWaitS >= 0)
            queueMs.push_back(tk.queueWaitS * 1e3);
        if (tk.firstTokS < 0)
            continue;
        const double ttft = (tk.firstTokS - tk.sentS) * 1e3;
        ttftMs.push_back(ttft);
        const double meanItl =
            tk.seen > 1 ? (tk.lastDelivS - tk.firstTokS) * 1e3 /
                              static_cast<double>(tk.seen - 1)
                        : 0.0;
        if (!failed && ttft <= w.ttftLimitMs && meanItl <= w.itlLimitMs)
            ++sloMet;
    }
    const Percentile ttft50 = percentileOf(ttftMs, 50);
    const Percentile ttftTail = tailOf(ttftMs, kTtftTailPct);
    const Percentile itl50 = percentileOf(itlMs, 50);
    const Percentile itlTail = tailOf(itlMs, w.itlTailPct);
    const double setupMedian = percentileOf(setupS, 50).value;
    const double outTokS = static_cast<double>(windowTokens) / args.seconds;
    const double sloAttain =
        sent > 0 ? static_cast<double>(sloMet) / static_cast<double>(sent) : 0;
    const double okFrac =
        sent > 0 ? 1.0 - static_cast<double>(nFailed) / static_cast<double>(sent)
                 : 0;
    const double peakRssMb = std::max(peakSetupMb, endPeakMb);
    const double serveRssMb = endPeakMb - rssAfterSetupMb;

    std::printf("window %.1f s: %lld requests sent, %lld done, %lld "
                "cancelled, %lld failed/expired; %lld tokens in %lld steps\n",
                args.seconds, static_cast<long long>(sent),
                static_cast<long long>(nDone),
                static_cast<long long>(nCancelled),
                static_cast<long long>(nFailed),
                static_cast<long long>(windowTokens),
                static_cast<long long>(windowSteps));
    const ServingEngine::Stats &fin = engine.stats();
    std::printf("scheduler (whole run): %lld evictions, %lld admission "
                "deferrals, %lld recomputed tokens, peak batch %lld, "
                "peak pages %lld of %lld\n",
                static_cast<long long>(fin.evictions),
                static_cast<long long>(fin.admissionDeferrals),
                static_cast<long long>(fin.recomputedTokens),
                static_cast<long long>(fin.peakBatch),
                static_cast<long long>(fin.peakPagesInUse),
                static_cast<long long>(cfg.pagePoolPages));
    std::printf("set-up: %zu reps, min %.6f s, max %.6f s\n", setupS.size(),
                *std::min_element(setupS.begin(), setupS.end()),
                *std::max_element(setupS.begin(), setupS.end()));
    const auto line = [](const char *name, double v, const char *unit,
                         const char *note = "") {
        std::printf("  %-16s %14.6g %-6s %s\n", name, v, unit, note);
    };
    char note[160];
    std::printf("end-to-end (limits: TTFT %.0f ms, mean ITL %.0f ms):\n",
                w.ttftLimitMs, w.itlLimitMs);
    line("setup_s", setupMedian, "s", "median of set-up reps");
    line("output_tok_s", outTokS, "tok/s");
    line("ttft_ms_p50", ttft50.value, "ms");
    std::snprintf(note, sizeof note, "p%.3g of %lld samples (%lld beyond)",
                  ttftTail.pct, static_cast<long long>(ttftTail.samples),
                  static_cast<long long>(ttftTail.beyond));
    line("ttft_ms_tail", ttftTail.value, "ms", note);
    line("itl_ms_p50", itl50.value, "ms");
    std::snprintf(note, sizeof note, "p%.3g of %lld samples (%lld beyond)",
                  itlTail.pct, static_cast<long long>(itlTail.samples),
                  static_cast<long long>(itlTail.beyond));
    line("itl_ms_tail", itlTail.value, "ms", note);
    line("slo_attain", sloAttain, "frac");
    std::snprintf(note, sizeof note,
                  "1 - failed_frac (failed/expired %lld of %lld)",
                  static_cast<long long>(nFailed), static_cast<long long>(sent));
    line("ok_frac", okFrac, "frac", note);
    line("peak_rss_mb", peakRssMb, "MB");
    line("serve_rss_mb", serveRssMb, "MB",
         hwmReset ? "" : "(VmHWM reset unavailable: includes set-up peak)");

    std::map<std::string, std::pair<double, std::string>> m;
    m["setup_s"] = {setupMedian, "s"};
    m["output_tok_s"] = {outTokS, "tok/s"};
    m["ttft_ms_p50"] = {ttft50.value, "ms"};
    m["ttft_ms_tail"] = {ttftTail.value, "ms"};
    m["itl_ms_p50"] = {itl50.value, "ms"};
    m["itl_ms_tail"] = {itlTail.value, "ms"};
    m["slo_attain"] = {sloAttain, "frac"};
    m["ok_frac"] = {okFrac, "frac"};
    m["peak_rss_mb"] = {peakRssMb, "MB"};
    m["serve_rss_mb"] = {serveRssMb, "MB"};

    if (kTraced) {
        const std::vector<tr::Span> spans = tr::collectSpans();
        if (!args.traceOut.empty() && !tr::writeSpans(args.traceOut, spans))
            violations.push_back("cannot write trace " + args.traceOut);
        const std::vector<tr::NameTotals> tot = tr::summarize(spans);
        const auto T = [&](tr::Name n) -> const tr::NameTotals & {
            return tot[static_cast<size_t>(n)];
        };
        const double stepNs = std::max(T(tr::Name::ServeStep).durNs, 1.0);
        const auto share = [&](std::initializer_list<tr::Name> names) {
            double s = 0;
            for (tr::Name n : names)
                s += T(n).selfNs;
            return s / stepNs;
        };
        const auto perUnit = [](double num, double den) {
            return den > 0 ? num / den : 0.0;
        };
        const tr::NameTotals &lin = T(tr::Name::CoreLinear);
        const double attnNs = T(tr::Name::CoreAttnScores).durNs +
                              T(tr::Name::CoreAttnPv).durNs;
        const double attnMacs =
            T(tr::Name::CoreAttnScores).work + T(tr::Name::CoreAttnPv).work;
        const ServingEngine::Stats &s0 = statsAtStart;
        const ServingEngine::Stats &s1 = statsAtEnd;
        const double decoded =
            static_cast<double>(s1.decodedTokens - s0.decodedTokens);
        const double prefilled =
            static_cast<double>(s1.prefillTokens - s0.prefillTokens);

        // Computed (not measured) storage figures.
        double linBytes = 0, linElems = 0;
        const auto addLinear = [&](int64_t rows, int64_t cols) {
            linBytes += static_cast<double>(
                MantTilesView::geometry(rows, cols, kGroup).storageBytes());
            linElems += static_cast<double>(rows * cols);
        };
        for (int64_t l = 0; l < d.nLayers; ++l) {
            for (int i = 0; i < 4; ++i)
                addLinear(d.dModel, d.dModel);
            addLinear(d.dFfn, d.dModel);
            addLinear(d.dFfn, d.dModel);
            addLinear(d.dModel, d.dFfn);
        }
        const double hd = static_cast<double>(d.headDim());
        const double kvBytesPerElem =
            (static_cast<double>(KPanelStore::blockBytesFor(d.headDim(), kGroup)) /
                 (kTilePanelCols * hd) +
             static_cast<double>(VPanelStore::blockBytesFor(d.headDim(), kGroup)) /
                 (static_cast<double>(kGroup) * hd)) /
            2.0;

        const double reps = static_cast<double>(w.setupReps);
        const Percentile step50 = percentileOf(stepMs, 50);
        const Percentile stepTail = tailOf(stepMs, 99);
        const Percentile q50 = percentileOf(queueMs, 50);
        const Percentile qTail = tailOf(queueMs, kTtftTailPct);
        const Percentile lagTail = tailOf(lagMs, 99);

        m.clear();
        m["core.linear.self_share"] = {share({tr::Name::CoreLinear}), "frac"};
        m["core.linear.gmac_s"] = {perUnit(lin.work, lin.durNs), "GMAC/s"};
        m["core.linear.weight_gb_s"] = {perUnit(lin.bytes, lin.durNs), "GB/s"};
        m["core.linear.bits_per_elem"] = {8.0 * linBytes / linElems,
                                          "bit/elem"};
        m["core.act_encode.self_share"] = {share({tr::Name::CoreActEncode}),
                                           "frac"};
        m["core.attn.self_share"] = {
            share({tr::Name::CoreAttnQ, tr::Name::CoreAttnScores,
                   tr::Name::CoreAttnPv}),
            "frac"};
        m["core.attn.gmac_s"] = {perUnit(attnMacs, attnNs), "GMAC/s"};
        m["core.kv_quant.self_share"] = {
            share({tr::Name::CoreKvSpatial, tr::Name::CoreKvTemporal,
                   tr::Name::CoreKvPanel}),
            "frac"};
        m["core.kv_pages.allocs"] = {
            static_cast<double>(tr::gPages.allocs - pagesAtStart[0]), "count"};
        m["core.kv_pages.frees"] = {
            static_cast<double>(tr::gPages.frees - pagesAtStart[1]), "count"};
        m["core.kv_pages.alloc_failures"] = {
            static_cast<double>(tr::gPages.allocFailures - pagesAtStart[2]),
            "count"};
        m["core.kv_pages.peak_frac"] = {
            pool ? perUnit(static_cast<double>(pool->peakInUsePages()),
                           static_cast<double>(pool->maxPages()))
                 : 0.0,
            "frac"};
        m["core.kv_pages.bytes_per_elem"] = {kvBytesPerElem, "B/elem"};
        m["core.mant_quantize_ms"] = {T(tr::Name::CoreQuantize).durNs / reps / 1e6,
                                      "ms"};
        m["core.pack_ms"] = {T(tr::Name::CorePack).durNs / reps / 1e6, "ms"};
        m["model.load_ms"] = {T(tr::Name::ModelLoad).durNs / reps / 1e6, "ms"};
        m["model.decode_batch.ms_per_row"] = {
            perUnit(T(tr::Name::ModelDecode).durNs / 1e6,
                    T(tr::Name::ModelDecode).work),
            "ms"};
        m["model.prefill_chunk.ms_per_token"] = {
            perUnit(T(tr::Name::ModelPrefill).durNs / 1e6,
                    T(tr::Name::ModelPrefill).work),
            "ms"};
        m["model.self_share"] = {
            share({tr::Name::ModelDecode, tr::Name::ModelPrefill,
                   tr::Name::ModelPagesNeeded}),
            "frac"};
        m["model.lm_head.self_share"] = {share({tr::Name::ModelLmHead}),
                                         "frac"};
        m["model.kv_append.self_share"] = {
            share({tr::Name::ModelAppendK, tr::Name::ModelAppendV}), "frac"};
        m["model.pages_needed.us_per_call"] = {
            perUnit(T(tr::Name::ModelPagesNeeded).durNs / 1e3,
                    static_cast<double>(T(tr::Name::ModelPagesNeeded).count)),
            "us"};
        m["serve.step.ms_p50"] = {step50.value, "ms"};
        m["serve.step.ms_tail"] = {stepTail.value, "ms"};
        m["serve.step.count"] = {static_cast<double>(windowSteps), "count"};
        m["serve.self_ms_per_step"] = {
            perUnit(T(tr::Name::ServeStep).selfNs / 1e6,
                    static_cast<double>(T(tr::Name::ServeStep).count)),
            "ms"};
        m["serve.batch_width_mean"] = {
            perUnit(decoded,
                    static_cast<double>(s1.decodeBatches - s0.decodeBatches)),
            "rows"};
        m["serve.prefill_tokens_per_step_max"] = {
            static_cast<double>(engine.stats().maxPrefillTokensPerStep),
            "tokens"};
        m["serve.queue_wait_ms_p50"] = {q50.value, "ms"};
        m["serve.queue_wait_ms_tail"] = {qTail.value, "ms"};
        m["serve.evictions"] = {static_cast<double>(s1.evictions - s0.evictions),
                                "count"};
        m["serve.recompute_ratio"] = {
            perUnit(static_cast<double>(s1.recomputedTokens -
                                        s0.recomputedTokens),
                    prefilled + decoded),
            "frac"};
        m["serve.admission_deferrals"] = {
            static_cast<double>(s1.admissionDeferrals - s0.admissionDeferrals),
            "count"};
        m["serve.requests_sent"] = {static_cast<double>(sent), "count"};
        m["serve.requests_done"] = {static_cast<double>(nDone), "count"};
        m["serve.requests_failed"] = {static_cast<double>(nFailed), "count"};
        m["serve.requests_cancelled"] = {static_cast<double>(nCancelled),
                                         "count"};
        m["bench.gen_lag_ms_tail"] = {lagTail.value, "ms"};

        double shareSum = 0;
        for (const auto &[k, v] : m)
            if (k.size() > 11 && k.compare(k.size() - 11, 11, ".self_share") == 0)
                shareSum += v.first;
        shareSum += perUnit(T(tr::Name::ServeStep).selfNs, stepNs);
        std::printf("per-layer (traced; %zu spans from every %lld-th step, "
                    "self shares incl. serve sum to %.3f):\n",
                    spans.size(), static_cast<long long>(kTraceStride),
                    shareSum);
        for (const auto &[k, v] : m)
            std::printf("  %-34s %14.5f %s\n", k.c_str(), v.first,
                        v.second.c_str());
        std::printf("  computed storage: linear %.4f bit/elem (paper 4 + "
                    "24/64 = 4.375); KV %.4f B/elem incl. flat code copies "
                    "(paper ~0.547)\n",
                    8.0 * linBytes / linElems, kvBytesPerElem);
        std::printf("  tails: step p%g of %lld, queue wait p%g of %lld, "
                    "gen lag p%g of %lld\n",
                    stepTail.pct, static_cast<long long>(stepTail.samples),
                    qTail.pct, static_cast<long long>(qTail.samples),
                    lagTail.pct, static_cast<long long>(lagTail.samples));
    }

    for (const std::string &v : violations)
        std::printf("VIOLATION: %s\n", v.c_str());

    JsonOut out;
    out.os << '{';
    out.key("correct");
    out.os << (violations.empty() ? "true" : "false");
    out.key("violations");
    out.os << '[';
    for (size_t i = 0; i < violations.size(); ++i)
        out.os << (i ? ", " : "") << jsonString(violations[i]);
    out.os << ']';
    out.key("attempted");
    out.os << sent;
    out.key("failed");
    out.os << nFailed;
    out.key("workload");
    out.os << '"' << w.name << '"';
    out.key("seed");
    out.os << args.seed;
    out.key("threads");
    out.os << threads;
    out.key("nproc");
    out.os << nproc;
    out.key("simd");
    out.os << '"' << simdPathName(activeSimdPath()) << '"';
    out.key("request_hash");
    out.os << '"' << std::hex << plan.hash << std::dec << '"';
    out.key("token_checksum");
    out.os << '"' << std::hex << checksum << std::dec << '"';
    out.key("oracle_checked");
    out.os << oracleChecked;
    out.key("output_tok_s");
    out.os << fmt(outTokS);
    out.key("digests");
    out.os << '{' << digests.str() << '}';
    out.key("metrics");
    out.os << '{';
    bool first = true;
    for (const auto &[k, v] : m) {
        out.os << (first ? "" : ", ") << '"' << k << "\": {\"value\": "
               << fmt(v.first) << ", \"unit\": \"" << v.second << "\"}";
        first = false;
    }
    out.os << "}}";
    std::printf("%s\n", out.os.str().c_str());
    std::fflush(stdout);
    return violations.empty() ? 0 : 1;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_serve: %s\nusage: perfbench_serve --workload "
                 "{chat_decode|long_context|open_loop_mixed} --seed N "
                 "--seconds S --workdir DIR [--trace-out FILE]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string k = argv[i], v = argv[i + 1];
            if (k == "--workload")
                args.workload = v;
            else if (k == "--seed")
                args.seed = std::stoull(v);
            else if (k == "--seconds")
                args.seconds = std::stod(v);
            else if (k == "--workdir")
                args.workdir = v;
            else if (k == "--trace-out")
                args.traceOut = v;
            else
                return usage(("unknown argument " + k).c_str());
        }
    } catch (const std::exception &) {
        return usage("bad argument value");
    }
    if (args.workload.empty() || args.seconds <= 0 || args.workdir.empty())
        return usage("missing --workload, --seconds or --workdir");
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
        return 2;
    }
}
