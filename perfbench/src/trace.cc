#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

std::atomic<bool> gRecording{false};
PageCounters gPages;

namespace {

std::atomic<uint32_t> gNextId{1};
std::atomic<int64_t> gStep{0};
std::atomic<int64_t> gStride{1};
std::atomic<bool> gSampled{true};
std::atomic<uint16_t> gNextThread{0};

/** Per-thread span buffers. Owned by the registry, not by the thread,
 *  so spans recorded on pool workers survive however long those
 *  threads live. */
struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

struct ThreadState
{
    std::vector<Span> *buffer = nullptr;
    std::vector<uint32_t> open; ///< ids of open spans, innermost last
    uint32_t inherited = 0;
    uint16_t index = 0;
};

ThreadState &
threadState()
{
    thread_local ThreadState t;
    if (!t.buffer) {
        Registry &r = registry();
        const std::lock_guard<std::mutex> lock(r.mu);
        r.buffers.push_back(std::make_unique<std::vector<Span>>());
        t.buffer = r.buffers.back().get();
        t.buffer->reserve(1 << 16);
        t.index = gNextThread.fetch_add(1, std::memory_order_relaxed);
    }
    return t;
}

} // namespace

const char *
nameString(Name n)
{
    static const char *const kNames[] = {
        "serve.step",          "model.decode_batch",
        "model.prefill_chunk", "model.pages_needed",
        "model.lm_head",       "model.append_k",
        "model.append_v",      "model.load",
        "core.linear",         "core.act_encode",
        "core.attn.q_encode",  "core.attn.scores",
        "core.attn.pv",        "core.kv_quant.spatial",
        "core.kv_quant.temporal", "core.kv_quant.k_panel",
        "core.mant_quantize",  "core.pack",
        "bench.setup",
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<size_t>(Name::Count));
    return kNames[static_cast<size_t>(n)];
}

void
setRecording(bool on)
{
    gRecording.store(on, std::memory_order_relaxed);
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint32_t
currentSpan()
{
    const ThreadState &t = threadState();
    return t.open.empty() ? t.inherited : t.open.back();
}

void
setStep(int64_t step)
{
    gStep.store(step, std::memory_order_relaxed);
    gSampled.store(step % gStride.load(std::memory_order_relaxed) == 0,
                   std::memory_order_relaxed);
}

void
setSampleStride(int64_t stride)
{
    gStride.store(stride > 0 ? stride : 1, std::memory_order_relaxed);
}

Scope::Scope(Name name)
{
    if (!recording() || !gSampled.load(std::memory_order_relaxed))
        return;
    on_ = true;
    ThreadState &t = threadState();
    rec_.id = gNextId.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = t.open.empty() ? t.inherited : t.open.back();
    rec_.step = gStep.load(std::memory_order_relaxed);
    rec_.name = static_cast<uint16_t>(name);
    rec_.thread = t.index;
    t.open.push_back(rec_.id);
    rec_.startNs = nowNs();
}

Scope::~Scope()
{
    if (!on_)
        return;
    rec_.endNs = nowNs();
    ThreadState &t = threadState();
    t.open.pop_back();
    t.buffer->push_back(rec_);
}

InheritParent::InheritParent(uint32_t parent)
{
    ThreadState &t = threadState();
    saved_ = t.inherited;
    t.inherited = parent;
}

InheritParent::~InheritParent()
{
    threadState().inherited = saved_;
}

std::vector<Span>
collectSpans()
{
    std::vector<Span> all;
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &b : r.buffers)
        all.insert(all.end(), b->begin(), b->end());
    std::sort(all.begin(), all.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return all;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8;
    const uint32_t names = static_cast<uint32_t>(Name::Count);
    ok = ok && std::fwrite(&names, sizeof names, 1, f) == 1;
    for (uint32_t i = 0; i < names; ++i) {
        const char *s = nameString(static_cast<Name>(i));
        ok = ok && std::fwrite(s, 1, std::char_traits<char>::length(s) + 1,
                               f) > 0;
    }
    const uint64_t n = spans.size();
    ok = ok && std::fwrite(&n, sizeof n, 1, f) == 1;
    ok = ok && (n == 0 ||
                std::fwrite(spans.data(), sizeof(Span), n, f) == n);
    return std::fclose(f) == 0 && ok;
}

std::vector<NameTotals>
summarize(const std::vector<Span> &spans)
{
    // Children per parent, as indices into `spans` (sorted by id, so
    // a parent id maps to its index by binary search).
    const auto indexOf = [&](uint32_t id) -> int64_t {
        const auto it = std::lower_bound(
            spans.begin(), spans.end(), id,
            [](const Span &s, uint32_t v) { return s.id < v; });
        return it != spans.end() && it->id == id
                   ? static_cast<int64_t>(it - spans.begin())
                   : -1;
    };
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0)
            continue;
        const int64_t p = indexOf(s.parent);
        if (p >= 0)
            kids[static_cast<size_t>(p)].emplace_back(s.startNs, s.endNs);
    }

    std::vector<NameTotals> totals(static_cast<size_t>(Name::Count));
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Length of the union of child intervals clipped to [start, end].
        int64_t covered = 0;
        int64_t curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        NameTotals &t = totals[s.name];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        t.count += 1;
        t.durNs += dur;
        t.selfNs += dur - static_cast<double>(covered);
        t.work += static_cast<double>(s.work);
        t.bytes += static_cast<double>(s.bytes);
    }
    return totals;
}

} // namespace perfbench::trace
