/**
 * @file
 * In-memory span recorder for the traced serving benchmark.
 *
 * A span is one call across a layer boundary: its name, start and end
 * (steady clock, ns), the span that caused it, the thread it ran on,
 * the scheduler step it belongs to, and two computed work counters
 * (MACs or rows, and bytes). Spans are appended to per-thread buffers
 * and written out once, when the run ends (writeSpans).
 *
 * Parentage: the parent of a span is the innermost open span on the
 * same thread. A thread that runs work handed to it by parallelFor
 * has no open span of its own, so the dispatching span is installed
 * as its inherited parent for the duration of the chunk
 * (InheritParent) — a wrapped call on a worker then hangs off the span
 * that dispatched it, not off nothing.
 *
 * Recording is off unless setRecording(true): the wrappers then cost
 * one relaxed atomic load and call straight through.
 */

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/** Span names: one per wrapped boundary, plus the benchmark's own. */
enum class Name : uint16_t
{
    ServeStep,       ///< ServingEngine::step
    ModelDecode,     ///< Transformer::decodeBatch
    ModelPrefill,    ///< Transformer::prefillChunk
    ModelPagesNeeded,///< Transformer::pagesNeededForRows
    ModelLmHead,     ///< linearNT (the tied LM head)
    ModelAppendK,    ///< HeadKvCache::appendK
    ModelAppendV,    ///< HeadKvCache::appendV
    ModelLoad,       ///< LoadedModel::load
    CoreLinear,      ///< QuantizedLinear::forwardFusedInto
    CoreActEncode,   ///< Int8QuantizedActivations::assign
    CoreAttnQ,       ///< quantizeQRow
    CoreAttnScores,  ///< attnScoresFused
    CoreAttnPv,      ///< attnPvFused
    CoreKvSpatial,   ///< spatialQuantizeRow (both overloads)
    CoreKvTemporal,  ///< TemporalVQuantizer::pushPrefill / pushDecode
    CoreKvPanel,     ///< KPanelStore::appendRow
    CoreQuantize,    ///< MantQuantizedMatrix::quantize
    CorePack,        ///< MantPackedTiles::pack
    BenchSetup,      ///< one engine set-up, timed by the benchmark
    Count
};

const char *nameString(Name n);

struct Span
{
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t work = 0;  ///< MACs, rows or tokens (per name)
    uint64_t bytes = 0; ///< computed bytes streamed
    uint32_t id = 0;    ///< 1-based; 0 means "no span"
    uint32_t parent = 0;
    int64_t step = 0;   ///< scheduler step id (0 outside a step)
    uint16_t name = 0;
    uint16_t thread = 0;
};

extern std::atomic<bool> gRecording;

inline bool
recording()
{
    return gRecording.load(std::memory_order_relaxed);
}

void setRecording(bool on);

/** Steady-clock nanoseconds. */
int64_t nowNs();

/** Innermost open span on this thread, else its inherited parent. */
uint32_t currentSpan();

/** Step id stamped on spans opened from now on (any thread). Spans
 *  are recorded only in steps whose id is a multiple of the sampling
 *  stride (see setSampleStride); counters are kept in every step. */
void setStep(int64_t step);

/** Record spans in every `stride`-th scheduler step only (default 1).
 *  Keeps the span buffers and the tracing overhead bounded on
 *  workloads with many small calls per step. */
void setSampleStride(int64_t stride);

/** RAII span; records nothing when recording was off at entry. */
class Scope
{
  public:
    explicit Scope(Name name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void addWork(uint64_t work, uint64_t bytes = 0)
    {
        rec_.work += work;
        rec_.bytes += bytes;
    }

  private:
    Span rec_;
    bool on_ = false;
};

/** Installs `parent` as this thread's inherited parent for its
 *  lifetime (see the file comment). */
class InheritParent
{
  public:
    explicit InheritParent(uint32_t parent);
    ~InheritParent();
    InheritParent(const InheritParent &) = delete;
    InheritParent &operator=(const InheritParent &) = delete;

  private:
    uint32_t saved_;
};

/** Counters kept at the KV page allocator boundary. */
struct PageCounters
{
    std::atomic<int64_t> allocs{0};
    std::atomic<int64_t> frees{0};
    std::atomic<int64_t> allocFailures{0};
};
extern PageCounters gPages;

/** Every span recorded so far, merged across threads and ordered by
 *  id. Call only while no wrapped call is running. */
std::vector<Span> collectSpans();

/** Write spans as a binary file: "PBSPANS1", u32 name count, the
 *  NUL-terminated names, u64 span count, then the Span records.
 *  Returns false when the file cannot be written. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

/** Per-name totals from the summarizer. */
struct NameTotals
{
    int64_t count = 0;
    double durNs = 0;  ///< sum of span durations
    double selfNs = 0; ///< sum of self times
    double work = 0;
    double bytes = 0;
};

/**
 * Summarize spans: per name, the count, summed duration, summed self
 * time, and summed work counters. Self time is a span's duration minus
 * the length of the union of its children's intervals (clipped to the
 * span), so children that overlap — workers running in parallel under
 * one dispatcher — are not subtracted twice.
 */
std::vector<NameTotals> summarize(const std::vector<Span> &spans);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_H_
