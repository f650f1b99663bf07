/**
 * @file
 * Link-time wrappers for the traced benchmark binary.
 *
 * libmant is a static archive built without LTO, so each boundary
 * below is an undefined symbol in the object that calls it. Linking
 * with `-Wl,--wrap=<symbol>` sends those calls to `__wrap_<symbol>`
 * here, and `__real_<symbol>` reaches the library's own definition.
 * The untraced binary links the library unchanged, so the measured
 * code is byte-for-byte the code users run. Calls that stay inside one
 * object file are not redirected, which is why every name here is a
 * call from one library source file into another (checked with `nm`).
 *
 * Each `#define PB_SYM_*` line names one wrapped symbol;
 * perfbench/CMakeLists.txt reads these lines to build the --wrap list,
 * so this file is the only place a mangled name is written. Member
 * functions take `this` as their first parameter, exactly as the
 * Itanium C++ ABI passes it. When a library signature changes, the
 * traced link fails on the missing `__real_` symbol; update the name
 * here.
 */

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fused_attention.h"
#include "core/fused_gemm.h"
#include "core/kv_pages.h"
#include "core/kv_panels.h"
#include "core/kv_quant.h"
#include "core/packed_tiles.h"
#include "core/parallel.h"
#include "model/kv_cache.h"
#include "model/model_file.h"
#include "model/quantized_linear.h"
#include "model/transformer.h"
#include "serve/serving_engine.h"
#include "trace.h"

// serve
#define PB_SYM_STEP _ZN4mant13ServingEngine4stepEv
// model
#define PB_SYM_DECODE _ZN4mant11Transformer11decodeBatchESt4spanIKiLm18446744073709551615EES1_IKPNS_13StreamContextELm18446744073709551615EE
#define PB_SYM_PREFILL _ZN4mant11Transformer12prefillChunkERNS_13StreamContextESt4spanIKiLm18446744073709551615EE
#define PB_SYM_PAGES_NEEDED _ZNK4mant11Transformer18pagesNeededForRowsERKNS_13StreamContextEl
#define PB_SYM_LM_HEAD _ZN4mant8linearNTERKNS_6TensorES2_
#define PB_SYM_APPEND_K _ZN4mant11HeadKvCache7appendKESt4spanIKfLm18446744073709551615EE
#define PB_SYM_APPEND_V _ZN4mant11HeadKvCache7appendVESt4spanIKfLm18446744073709551615EE
#define PB_SYM_LOAD _ZN4mant11LoadedModel4loadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEb
// core
#define PB_SYM_LINEAR _ZNK4mant15QuantizedLinear16forwardFusedIntoERKNS_24Int8QuantizedActivationsERNS_6TensorE
#define PB_SYM_ACT_ENCODE _ZN4mant24Int8QuantizedActivations6assignERKNS_6TensorElb
#define PB_SYM_ATTN_Q _ZN4mant12quantizeQRowERKNS_7SimdOpsESt4spanIKfLm18446744073709551615EElRNS_11AttnScratchE
#define PB_SYM_ATTN_SCORES _ZN4mant15attnScoresFusedERKNS_7SimdOpsERKNS_11KPanelStoreESt4spanIKaLm18446744073709551615EES6_IKfLm18446744073709551615EElffS6_IfLm18446744073709551615EE
#define PB_SYM_ATTN_PV _ZN4mant11attnPvFusedERKNS_7SimdOpsERKNS_18TemporalVQuantizerESt4spanIKfLm18446744073709551615EERNS_11AttnScratchES6_IfLm18446744073709551615EE
#define PB_SYM_KV_SPATIAL_CODES _ZN4mant18spatialQuantizeRowESt4spanIKfLm18446744073709551615EElRKNS_16VarianceSelectorES0_IfLm18446744073709551615EES0_IaLm18446744073709551615EEb
#define PB_SYM_KV_SPATIAL _ZN4mant18spatialQuantizeRowESt4spanIKfLm18446744073709551615EElRKNS_16VarianceSelectorES0_IfLm18446744073709551615EEb
#define PB_SYM_KV_PREFILL _ZN4mant18TemporalVQuantizer11pushPrefillERKNS_6TensorE
#define PB_SYM_KV_DECODE _ZN4mant18TemporalVQuantizer10pushDecodeESt4spanIKfLm18446744073709551615EE
#define PB_SYM_K_PANEL _ZN4mant11KPanelStore9appendRowESt4spanIKaLm18446744073709551615EES1_IKNS_13MantSelectionELm18446744073709551615EE
#define PB_SYM_PAGE_ALLOC _ZN4mant15KvPageAllocator5allocEv
#define PB_SYM_PAGE_FREE _ZN4mant15KvPageAllocator4freeEl
#define PB_SYM_QUANTIZE _ZN4mant19MantQuantizedMatrix8quantizeERKNS_6TensorElNS0_6SearchESt4spanIKdLm18446744073709551615EEb
#define PB_SYM_PACK _ZN4mant15MantPackedTiles4packERKNS_19MantQuantizedMatrixE
// dispatch: parent propagation only, not a span
#define PB_SYM_PARALLEL_FOR _ZN4mant11parallelForElllRKSt8functionIFvlllEE

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
#define REAL(sym) PB_CAT(__real_, sym)
#define WRAP(sym) PB_CAT(__wrap_, sym)

using namespace mant;
namespace tr = perfbench::trace;

namespace {

std::atomic<int64_t> gStepCounter{0};

} // namespace

extern "C" {

// ---- serve -----------------------------------------------------------

bool REAL(PB_SYM_STEP)(ServingEngine *self);
bool
WRAP(PB_SYM_STEP)(ServingEngine *self)
{
    tr::setStep(gStepCounter.fetch_add(1) + 1);
    const tr::Scope s(tr::Name::ServeStep);
    return REAL(PB_SYM_STEP)(self);
}

// ---- model -----------------------------------------------------------

Tensor REAL(PB_SYM_DECODE)(Transformer *self,
                           std::span<const int32_t> tokens,
                           std::span<StreamContext *const> streams);
Tensor
WRAP(PB_SYM_DECODE)(Transformer *self, std::span<const int32_t> tokens,
                    std::span<StreamContext *const> streams)
{
    tr::Scope s(tr::Name::ModelDecode);
    s.addWork(tokens.size());
    return REAL(PB_SYM_DECODE)(self, tokens, streams);
}

Tensor REAL(PB_SYM_PREFILL)(Transformer *self, StreamContext &ctx,
                            std::span<const int32_t> tokens);
Tensor
WRAP(PB_SYM_PREFILL)(Transformer *self, StreamContext &ctx,
                     std::span<const int32_t> tokens)
{
    tr::Scope s(tr::Name::ModelPrefill);
    s.addWork(tokens.size());
    return REAL(PB_SYM_PREFILL)(self, ctx, tokens);
}

int64_t REAL(PB_SYM_PAGES_NEEDED)(const Transformer *self,
                                  const StreamContext &ctx, int64_t rows);
int64_t
WRAP(PB_SYM_PAGES_NEEDED)(const Transformer *self, const StreamContext &ctx,
                          int64_t rows)
{
    const tr::Scope s(tr::Name::ModelPagesNeeded);
    return REAL(PB_SYM_PAGES_NEEDED)(self, ctx, rows);
}

Tensor REAL(PB_SYM_LM_HEAD)(const Tensor &x, const Tensor &w);
Tensor
WRAP(PB_SYM_LM_HEAD)(const Tensor &x, const Tensor &w)
{
    tr::Scope s(tr::Name::ModelLmHead);
    // Float weights: 4 bytes per element streamed once per call.
    s.addWork(static_cast<uint64_t>(x.shape().dim(0) * w.numel()),
              static_cast<uint64_t>(w.numel()) * 4);
    return REAL(PB_SYM_LM_HEAD)(x, w);
}

void REAL(PB_SYM_APPEND_K)(HeadKvCache *self, std::span<const float> k);
void
WRAP(PB_SYM_APPEND_K)(HeadKvCache *self, std::span<const float> k)
{
    const tr::Scope s(tr::Name::ModelAppendK);
    REAL(PB_SYM_APPEND_K)(self, k);
}

void REAL(PB_SYM_APPEND_V)(HeadKvCache *self, std::span<const float> v);
void
WRAP(PB_SYM_APPEND_V)(HeadKvCache *self, std::span<const float> v)
{
    const tr::Scope s(tr::Name::ModelAppendV);
    REAL(PB_SYM_APPEND_V)(self, v);
}

std::unique_ptr<LoadedModel> REAL(PB_SYM_LOAD)(const std::string &path,
                                               bool forceRead);
std::unique_ptr<LoadedModel>
WRAP(PB_SYM_LOAD)(const std::string &path, bool forceRead)
{
    const tr::Scope s(tr::Name::ModelLoad);
    return REAL(PB_SYM_LOAD)(path, forceRead);
}

// ---- core ------------------------------------------------------------

void REAL(PB_SYM_LINEAR)(const QuantizedLinear *self,
                         const Int8QuantizedActivations &qx, Tensor &out);
void
WRAP(PB_SYM_LINEAR)(const QuantizedLinear *self,
                    const Int8QuantizedActivations &qx, Tensor &out)
{
    tr::Scope s(tr::Name::CoreLinear);
    const MantTilesView &w = self->tilesView();
    // Computed, not measured: one MAC per (row, weight element); the
    // packed tiles (codes + per-group meta) stream once per call.
    s.addWork(static_cast<uint64_t>(qx.rows() * w.rows() * w.cols()),
              static_cast<uint64_t>(w.storageBytes()));
    REAL(PB_SYM_LINEAR)(self, qx, out);
}

void REAL(PB_SYM_ACT_ENCODE)(Int8QuantizedActivations *self,
                             const Tensor &x, int64_t groupSize,
                             bool fp16Scale);
void
WRAP(PB_SYM_ACT_ENCODE)(Int8QuantizedActivations *self, const Tensor &x,
                        int64_t groupSize, bool fp16Scale)
{
    tr::Scope s(tr::Name::CoreActEncode);
    s.addWork(static_cast<uint64_t>(x.numel()),
              static_cast<uint64_t>(x.numel()) * 5);
    REAL(PB_SYM_ACT_ENCODE)(self, x, groupSize, fp16Scale);
}

void REAL(PB_SYM_ATTN_Q)(const SimdOps &ops, std::span<const float> q,
                         int64_t groupSize, AttnScratch &scratch);
void
WRAP(PB_SYM_ATTN_Q)(const SimdOps &ops, std::span<const float> q,
                    int64_t groupSize, AttnScratch &scratch)
{
    const tr::Scope s(tr::Name::CoreAttnQ);
    REAL(PB_SYM_ATTN_Q)(ops, q, groupSize, scratch);
}

void REAL(PB_SYM_ATTN_SCORES)(const SimdOps &ops, const KPanelStore &k,
                              std::span<const int8_t> q,
                              std::span<const float> qScales,
                              int64_t visible, float scale, float slope,
                              std::span<float> out);
void
WRAP(PB_SYM_ATTN_SCORES)(const SimdOps &ops, const KPanelStore &k,
                         std::span<const int8_t> q,
                         std::span<const float> qScales, int64_t visible,
                         float scale, float slope, std::span<float> out)
{
    tr::Scope s(tr::Name::CoreAttnScores);
    // One MAC per (visible position, head channel) over half-byte K
    // codes; the per-group metadata is not counted.
    s.addWork(static_cast<uint64_t>(visible) * q.size(),
              static_cast<uint64_t>(visible) * q.size() / 2);
    REAL(PB_SYM_ATTN_SCORES)(ops, k, q, qScales, visible, scale, slope, out);
}

void REAL(PB_SYM_ATTN_PV)(const SimdOps &ops, const TemporalVQuantizer &vq,
                          std::span<const float> probs,
                          AttnScratch &scratch, std::span<float> out);
void
WRAP(PB_SYM_ATTN_PV)(const SimdOps &ops, const TemporalVQuantizer &vq,
                     std::span<const float> probs, AttnScratch &scratch,
                     std::span<float> out)
{
    tr::Scope s(tr::Name::CoreAttnPv);
    s.addWork(probs.size() * out.size(), probs.size() * out.size() / 2);
    REAL(PB_SYM_ATTN_PV)(ops, vq, probs, scratch, out);
}

std::vector<MantSelection>
REAL(PB_SYM_KV_SPATIAL_CODES)(std::span<const float> values,
                              int64_t groupSize,
                              const VarianceSelector &sel,
                              std::span<float> out, std::span<int8_t> codes,
                              bool fp16Scale);
std::vector<MantSelection>
WRAP(PB_SYM_KV_SPATIAL_CODES)(std::span<const float> values,
                              int64_t groupSize,
                              const VarianceSelector &sel,
                              std::span<float> out, std::span<int8_t> codes,
                              bool fp16Scale)
{
    tr::Scope s(tr::Name::CoreKvSpatial);
    s.addWork(values.size());
    return REAL(PB_SYM_KV_SPATIAL_CODES)(values, groupSize, sel, out, codes,
                                         fp16Scale);
}

std::vector<MantSelection>
REAL(PB_SYM_KV_SPATIAL)(std::span<const float> values, int64_t groupSize,
                        const VarianceSelector &sel, std::span<float> out,
                        bool fp16Scale);
std::vector<MantSelection>
WRAP(PB_SYM_KV_SPATIAL)(std::span<const float> values, int64_t groupSize,
                        const VarianceSelector &sel, std::span<float> out,
                        bool fp16Scale)
{
    tr::Scope s(tr::Name::CoreKvSpatial);
    s.addWork(values.size());
    return REAL(PB_SYM_KV_SPATIAL)(values, groupSize, sel, out, fp16Scale);
}

void REAL(PB_SYM_KV_PREFILL)(TemporalVQuantizer *self, const Tensor &v);
void
WRAP(PB_SYM_KV_PREFILL)(TemporalVQuantizer *self, const Tensor &v)
{
    tr::Scope s(tr::Name::CoreKvTemporal);
    s.addWork(static_cast<uint64_t>(v.numel()));
    REAL(PB_SYM_KV_PREFILL)(self, v);
}

void REAL(PB_SYM_KV_DECODE)(TemporalVQuantizer *self,
                            std::span<const float> v);
void
WRAP(PB_SYM_KV_DECODE)(TemporalVQuantizer *self, std::span<const float> v)
{
    tr::Scope s(tr::Name::CoreKvTemporal);
    s.addWork(v.size());
    REAL(PB_SYM_KV_DECODE)(self, v);
}

void REAL(PB_SYM_K_PANEL)(KPanelStore *self, std::span<const int8_t> codes,
                          std::span<const MantSelection> sels);
void
WRAP(PB_SYM_K_PANEL)(KPanelStore *self, std::span<const int8_t> codes,
                     std::span<const MantSelection> sels)
{
    tr::Scope s(tr::Name::CoreKvPanel);
    s.addWork(codes.size());
    REAL(PB_SYM_K_PANEL)(self, codes, sels);
}

// KV page allocator: counted, not timed (a free-list pop is cheaper
// than the clock read that would time it).
KvPageId REAL(PB_SYM_PAGE_ALLOC)(KvPageAllocator *self);
KvPageId
WRAP(PB_SYM_PAGE_ALLOC)(KvPageAllocator *self)
{
    if (!tr::recording())
        return REAL(PB_SYM_PAGE_ALLOC)(self);
    tr::gPages.allocs.fetch_add(1, std::memory_order_relaxed);
    try {
        return REAL(PB_SYM_PAGE_ALLOC)(self);
    } catch (const KvPoolExhausted &) {
        tr::gPages.allocFailures.fetch_add(1, std::memory_order_relaxed);
        throw;
    }
}

void REAL(PB_SYM_PAGE_FREE)(KvPageAllocator *self, KvPageId id);
void
WRAP(PB_SYM_PAGE_FREE)(KvPageAllocator *self, KvPageId id)
{
    if (tr::recording())
        tr::gPages.frees.fetch_add(1, std::memory_order_relaxed);
    REAL(PB_SYM_PAGE_FREE)(self, id);
}

MantQuantizedMatrix REAL(PB_SYM_QUANTIZE)(const Tensor &w, int64_t groupSize,
                                          MantQuantizedMatrix::Search mode,
                                          std::span<const double> calibPower,
                                          bool fp16Scale);
MantQuantizedMatrix
WRAP(PB_SYM_QUANTIZE)(const Tensor &w, int64_t groupSize,
                      MantQuantizedMatrix::Search mode,
                      std::span<const double> calibPower, bool fp16Scale)
{
    tr::Scope s(tr::Name::CoreQuantize);
    s.addWork(static_cast<uint64_t>(w.numel()));
    return REAL(PB_SYM_QUANTIZE)(w, groupSize, mode, calibPower, fp16Scale);
}

MantPackedTiles REAL(PB_SYM_PACK)(const MantQuantizedMatrix &w);
MantPackedTiles
WRAP(PB_SYM_PACK)(const MantQuantizedMatrix &w)
{
    tr::Scope s(tr::Name::CorePack);
    s.addWork(static_cast<uint64_t>(w.rows() * w.cols()));
    return REAL(PB_SYM_PACK)(w);
}

// parallelFor records no span: it hands the dispatching span to every
// chunk, so wrapped calls made on pool workers keep their parent.
void REAL(PB_SYM_PARALLEL_FOR)(int64_t begin, int64_t end, int64_t grain,
                               const ParallelChunkFn &fn);
void
WRAP(PB_SYM_PARALLEL_FOR)(int64_t begin, int64_t end, int64_t grain,
                          const ParallelChunkFn &fn)
{
    if (!tr::recording()) {
        REAL(PB_SYM_PARALLEL_FOR)(begin, end, grain, fn);
        return;
    }
    const uint32_t parent = tr::currentSpan();
    const ParallelChunkFn chunk = [&fn, parent](int64_t b, int64_t e,
                                                int64_t i) {
        const tr::InheritParent inherit(parent);
        fn(b, e, i);
    };
    REAL(PB_SYM_PARALLEL_FOR)(begin, end, grain, chunk);
}

} // extern "C"
