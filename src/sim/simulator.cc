#include "sim/simulator.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace spec17 {
namespace sim {

using counters::PerfEvent;

double
SimResult::ipc() const
{
    const std::uint64_t cycles_counted =
        counters.get(PerfEvent::CpuClkUnhaltedRefTsc);
    if (cycles_counted == 0)
        return 0.0;
    return static_cast<double>(counters.get(PerfEvent::InstRetiredAny))
        / static_cast<double>(cycles_counted);
}

CpuSimulator::CpuSimulator(const SystemConfig &config, std::uint64_t seed,
                           std::shared_ptr<SetAssocCache> shared_l3,
                           std::shared_ptr<MemoryBus> shared_bus)
    : config_(config),
      hierarchy_(config.hierarchy, std::move(shared_l3), seed),
      branches_(makeDirectionPredictor(config.branchPredictor,
                                       config.tage)),
      core_(config.core, std::move(shared_bus)), dtlb_(config.dtlb),
      itlb_(config.itlb),
      // The same-line data memo is illegal under an L1D prefetcher
      // (skipped repeats would starve its training stream) and under
      // utag way prediction (an aliasing earlier way mispredicts every
      // repeat, so skipped repeats would dodge real penalty cycles).
      // MRU way prediction keeps it legal -- the memo'd line is by
      // construction the set's MRU way -- and an L2-only prefetcher
      // keeps it legal too, since skipped repeats are L1 hits it never
      // observes.
      dataMemoLegal_(hierarchy_.prefetcher() == nullptr
                     && config.hierarchy.l1d.wayPredictor
                            != WayPredictor::Utag)
{
    // Way prediction is modeled on the L1D load path only (timing and
    // stats); other levels would collect stats the batched lane's
    // inst memo cannot reproduce.
    SPEC17_ASSERT(config.hierarchy.l1i.wayPredictor == WayPredictor::None
                      && config.hierarchy.l2.wayPredictor
                             == WayPredictor::None
                      && config.hierarchy.l3.wayPredictor
                             == WayPredictor::None,
                  "way prediction is supported on the L1D only");
    instMemo_.assign(config.hierarchy.l1i.numSets(), kNoLine);
    dataMemo_.assign(config.hierarchy.l1d.numSets(), kNoLine);
    dataMemoDirty_.assign(config.hierarchy.l1d.numSets(), 0);
    pcPageSeen_.assign(kPcPageSeenSlots, kNoLine);
    dataPageSeen_.assign(kDataPageSeenSlots, kNoLine);
}

void
CpuSimulator::setBatchOps(std::size_t batch_ops)
{
    if (batch_ops == 0) {
        // Contained degradation, not a panic: the knob is results-
        // invariant, so the nearest legal value loses nothing.
        warn("batch size 0 is meaningless; clamping to 1");
        batch_ops = 1;
    }
    batchOps_ = batch_ops;
}

void
CpuSimulator::invalidateLineMemos()
{
    std::fill(instMemo_.begin(), instMemo_.end(), kNoLine);
    std::fill(dataMemo_.begin(), dataMemo_.end(), kNoLine);
    std::fill(dataMemoDirty_.begin(), dataMemoDirty_.end(),
              std::uint8_t{0});
}

void
CpuSimulator::consume(const isa::MicroOp &op)
{
    counters_.add(PerfEvent::InstRetiredAny);
    counters_.add(PerfEvent::UopsRetiredAll);

    // Instruction fetch: one L1I access per retired op; only count a
    // fetch stall for new lines to avoid charging every sequential op.
    const HitLevel fetch_level = hierarchy_.accessInst(op.pc);
    footprint_.touch(op.pc);
    unsigned fetch_stall = 0;
    if (fetch_level != HitLevel::L1) {
        const unsigned latency = hierarchy_.latencyOf(fetch_level);
        const unsigned hidden = config_.core.frontendBufferCycles;
        fetch_stall = latency > hidden ? latency - hidden : 0;
    }
    if (config_.enableTlb) {
        const TlbOutcome itlb_outcome = itlb_.access(op.pc);
        fetch_stall += itlb_outcome.extraLatency;
        if (!itlb_outcome.l1Hit && !itlb_outcome.l2Hit)
            counters_.add(PerfEvent::ItlbMissesWalk);
    }

    unsigned mem_latency = 0;
    bool l1_miss = false;
    bool mispredicted = false;
    bool dram_access = false;
    double dram_lines = 1.0;

    if (op.isLoad()) {
        counters_.add(PerfEvent::MemUopsRetiredAllLoads);
        const HitLevel level =
            hierarchy_.accessData(op.effAddr, false, op.pc);
        footprint_.touch(op.effAddr);
        // lastDataWayPenalty() is zero unless the L1D way predictor
        // just mispredicted this access's hit way.
        mem_latency =
            hierarchy_.latencyOf(level) + hierarchy_.lastDataWayPenalty();
        l1_miss = level != HitLevel::L1;
        dram_access = level == HitLevel::Memory;
        if (config_.enableTlb) {
            const TlbOutcome dtlb_outcome = dtlb_.access(op.effAddr);
            mem_latency += dtlb_outcome.extraLatency;
            // A translation longer than the L1 hit pipeline behaves
            // like a miss for overlap purposes.
            l1_miss |= dtlb_outcome.extraLatency > 0;
            if (!dtlb_outcome.l1Hit && !dtlb_outcome.l2Hit)
                counters_.add(PerfEvent::DtlbLoadMissesWalk);
        }
        switch (level) {
          case HitLevel::L1:
            counters_.add(PerfEvent::MemLoadUopsRetiredL1Hit);
            break;
          case HitLevel::L2:
            counters_.add(PerfEvent::MemLoadUopsRetiredL1Miss);
            counters_.add(PerfEvent::MemLoadUopsRetiredL2Hit);
            break;
          case HitLevel::L3:
            counters_.add(PerfEvent::MemLoadUopsRetiredL1Miss);
            counters_.add(PerfEvent::MemLoadUopsRetiredL2Miss);
            counters_.add(PerfEvent::MemLoadUopsRetiredL3Hit);
            break;
          case HitLevel::Memory:
            counters_.add(PerfEvent::MemLoadUopsRetiredL1Miss);
            counters_.add(PerfEvent::MemLoadUopsRetiredL2Miss);
            counters_.add(PerfEvent::MemLoadUopsRetiredL3Miss);
            break;
        }
    } else if (op.isStore()) {
        counters_.add(PerfEvent::MemUopsRetiredAllStores);
        const HitLevel level =
            hierarchy_.accessData(op.effAddr, true, op.pc);
        footprint_.touch(op.effAddr);
        if (level == HitLevel::Memory) {
            // Write-allocate RFO read now, dirty writeback later.
            dram_access = true;
            dram_lines = 2.0;
        }
    } else if (op.isBranch()) {
        counters_.add(PerfEvent::BrInstExecAllBranches);
        switch (op.branch) {
          case isa::BranchKind::Conditional:
            counters_.add(PerfEvent::BrInstExecAllConditional);
            break;
          case isa::BranchKind::DirectJump:
            counters_.add(PerfEvent::BrInstExecAllDirectJmp);
            break;
          case isa::BranchKind::DirectNearCall:
            counters_.add(PerfEvent::BrInstExecAllDirectNearCall);
            break;
          case isa::BranchKind::IndirectJumpNonCallRet:
            counters_.add(
                PerfEvent::BrInstExecAllIndirectJumpNonCallRet);
            break;
          case isa::BranchKind::IndirectNearReturn:
            counters_.add(PerfEvent::BrInstExecAllIndirectNearReturn);
            break;
          case isa::BranchKind::None:
            SPEC17_PANIC("branch with kind None reached simulator");
        }
        mispredicted = branches_.execute(op);
        if (mispredicted)
            counters_.add(PerfEvent::BrMispExecAllBranches);
    }

    core_.retire(op, mem_latency, l1_miss, fetch_stall, mispredicted,
                 dram_access, dram_lines);
}

void
CpuSimulator::consumeBatch(const trace::MicroOpBatch &lanes,
                           std::size_t base, std::size_t n,
                           MemoryLaneLog *record,
                           const MemoryLaneLog *import,
                           const MemoryLaneLog::Batch *imported)
{
    // Equivalent to n consume() calls over lane slots [base, base+n)
    // of @p lanes, restructured into tight per-component passes so each
    // loop walks only the lanes its component consumes and the
    // compiler can vectorize the lane arithmetic. Identity is argued
    // pass by pass against the per-op order consume() would produce:
    //  - Cache pass: L1I and L1D share L2/L3, so the fetch access and
    //    the data access of one op MUST stay interleaved in op order
    //    within a single pass -- splitting them would reorder the
    //    shared-level access sequence. The per-set line memos live
    //    here (an access to a set's MRU line is an L1 hit whose
    //    replacement-state update is a no-op, see
    //    SetAssocCache::creditHits for the policy-by-policy proof;
    //    writes only skip when the line is known dirty; the data memo
    //    is disabled when a prefetcher is configured).
    //  - TLB passes: itlb_ is fed only by the pc sequence and dtlb_
    //    only by load addresses; neither shares state with anything
    //    else, so hoisting each into its own in-order pass leaves
    //    every TLB's observed access sequence unchanged.
    //  - Branch pass: only branch ops touch the branch unit, and the
    //    pass visits them in op order, so the predictor/BTB see the
    //    exact consume() sequence.
    //  - Footprint pass: the page set is idempotent and its contents
    //    are order-independent (observed only via rssBytes at step
    //    boundaries), so pc and data touches run as two sub-passes,
    //    each filtered through a local last-page memo.
    //  - Retire pass: retirement carries serial cross-op core state,
    //    so it stays a final in-order pass fed by the per-op lanes
    //    (fetch stall, memory latency, L1 miss, mispredict, DRAM) the
    //    earlier passes staged -- the same per-op scalars the fused
    //    loop handed retire().
    //  - Counter increments accumulate in locals and flush once per
    //    batch (adds are commutative, observed only at step
    //    boundaries, and batches never straddle a step boundary).
    // With @p imported set, the cache and TLB passes -- deterministic
    // functions of the op stream and the (identical) hierarchy/TLB
    // configuration -- do not run: their lanes and counter deltas are
    // read from that batch of the leader's log instead, and this
    // simulator's hierarchy and TLBs are never touched. The branch,
    // footprint and retire passes run either way, so predictor state,
    // footprint and core timing are this simulator's own.
    if (fetchStall_.size() < n) {
        fetchStall_.resize(n);
        memLatency_.resize(n);
        l1Miss_.resize(n);
        mispredicted_.resize(n);
        dram_.resize(n);
        branchIdx_.resize(n);
        memIdx_.resize(n);
    }

    // Raw __restrict views of every lane the passes walk. Several
    // scratch lanes are byte-typed, and a plain std::uint8_t store may
    // alias anything (unsigned char is the universal-aliasing type),
    // which would force the compiler to reload every hoisted pointer
    // and memo value after each store -- measurably dominating the
    // pass loops. The restrict qualification restores the no-overlap
    // guarantee the distinct vectors trivially satisfy.
    const std::uint64_t *__restrict const pcs = lanes.pc.data() + base;
    const std::uint64_t *__restrict const addrs =
        lanes.addr.data() + base;
    const std::uint64_t *__restrict const targets =
        lanes.target.data() + base;
    const isa::UopClass *__restrict const classes =
        lanes.cls.data() + base;
    const isa::BranchKind *__restrict const kindv =
        lanes.kind.data() + base;
    const std::uint8_t *__restrict const takenv =
        lanes.taken.data() + base;
    const std::uint8_t *__restrict const dep_load =
        lanes.depOnLoad.data() + base;
    const std::uint8_t *__restrict const dep_prev =
        lanes.depOnPrev.data() + base;
    std::uint8_t *__restrict const mispred = mispredicted_.data();
    const bool tlb = config_.enableTlb;
    const bool way_pred = hierarchy_.hasWayPrediction();

    // The batch's memory-side outcome counts: imported, or produced
    // by the cache and TLB passes below.
    MemoryLaneLog::Batch b;
    std::uint64_t inst_repeat_hits = 0;
    std::uint64_t data_repeat_hits = 0;
    std::uint64_t data_repeat_load_hits = 0;
    if (imported != nullptr) {
        b = *imported;
        SPEC17_ASSERT(b.n == n,
                      "memory-lane batch size diverged from the log "
                      "(have ", n, ", recorded ", b.n, ")");
    } else {
        const unsigned inst_shift = static_cast<unsigned>(
            std::countr_zero(config_.hierarchy.l1i.lineBytes));
        const unsigned data_shift = static_cast<unsigned>(
            std::countr_zero(config_.hierarchy.l1d.lineBytes));
        const unsigned hidden = config_.core.frontendBufferCycles;

        // Hoisted HitLevel -> latency / fetch-stall tables (HitLevel
        // is a dense 0..3 enum). An L1 fetch hit never stalls
        // regardless of its latency, hence the explicit zero.
        unsigned lat[4];
        unsigned stall_of[4];
        for (unsigned v = 0; v < 4; ++v) {
            lat[v] = hierarchy_.latencyOf(static_cast<HitLevel>(v));
            stall_of[v] = lat[v] > hidden ? lat[v] - hidden : 0;
        }
        stall_of[static_cast<std::size_t>(HitLevel::L1)] = 0;

        unsigned *__restrict const fetch_stall = fetchStall_.data();
        unsigned *__restrict const mem_lat = memLatency_.data();
        std::uint8_t *__restrict const l1_missed = l1Miss_.data();
        std::uint8_t *__restrict const dram_code = dram_.data();
        std::uint64_t *__restrict const inst_memo = instMemo_.data();
        std::uint64_t *__restrict const data_memo = dataMemo_.data();
        std::uint8_t *__restrict const data_memo_dirty =
            dataMemoDirty_.data();
        const SetAssocCache &l1i = hierarchy_.l1i();
        const SetAssocCache &l1d = hierarchy_.l1d();
        const bool data_memo_legal = dataMemoLegal_;

        std::uint64_t num_loads = 0;
        std::uint64_t num_stores = 0;
        std::uint64_t loads_at[4] = {0, 0, 0, 0};
        std::uint32_t *__restrict const branch_idx = branchIdx_.data();
        std::uint32_t *__restrict const mem_idx = memIdx_.data();
        std::size_t branch_count = 0;
        std::size_t mem_count = 0;

        // The scratch lanes default to zero for every op; the cache
        // pass then stores only the exceptional values (memory
        // latencies, L1 misses, DRAM transfers, non-L1 fetch stalls),
        // turning three always-taken scalar stores per op into
        // vectorized fills plus rare stores.
        std::memset(fetch_stall, 0, n * sizeof(fetch_stall[0]));
        std::memset(mem_lat, 0, n * sizeof(mem_lat[0]));
        std::memset(l1_missed, 0, n);
        std::memset(dram_code, 0, n);

        // Cache pass: fetch + data per op, interleaved in op order. As
        // a by-product of its class dispatch it records the branch and
        // memory op index lists the later passes walk.
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t pc = pcs[i];
            const std::uint64_t fetch_line = pc >> inst_shift;
            const std::uint64_t iset = l1i.setOfLine(fetch_line);
            if (inst_memo[iset] == fetch_line) {
                ++inst_repeat_hits;
            } else {
                const HitLevel fetch_level =
                    hierarchy_.accessInstFast(pc);
                inst_memo[iset] = fetch_line;
                const unsigned stall =
                    stall_of[static_cast<std::size_t>(fetch_level)];
                if (stall != 0)
                    fetch_stall[i] = stall;
            }

            const isa::UopClass cls = classes[i];
            if (cls == isa::UopClass::Load) {
                ++num_loads;
                mem_idx[mem_count++] = static_cast<std::uint32_t>(i);
                const std::uint64_t addr = addrs[i];
                const std::uint64_t line = addr >> data_shift;
                const std::uint64_t dset = l1d.setOfLine(line);
                HitLevel level = HitLevel::L1;
                unsigned way_penalty = 0;
                if (data_memo_legal && data_memo[dset] == line) {
                    // Memo-skipped repeats predict correctly under MRU
                    // (the memo'd line is the set's MRU way), so they
                    // carry no penalty; utag disables the memo
                    // instead.
                    ++data_repeat_hits;
                    ++data_repeat_load_hits;
                } else {
                    level = hierarchy_.accessDataFast(addr, false, pc);
                    if (way_pred)
                        way_penalty = l1d.lastWayPenalty();
                    data_memo[dset] = line;
                    data_memo_dirty[dset] = 0;
                }
                ++loads_at[static_cast<std::size_t>(level)];
                mem_lat[i] =
                    lat[static_cast<std::size_t>(level)] + way_penalty;
                if (level != HitLevel::L1) {
                    l1_missed[i] = 1;
                    if (level == HitLevel::Memory)
                        dram_code[i] = 1;
                }
            } else if (cls == isa::UopClass::Store) {
                ++num_stores;
                mem_idx[mem_count++] = static_cast<std::uint32_t>(i);
                const std::uint64_t addr = addrs[i];
                const std::uint64_t line = addr >> data_shift;
                const std::uint64_t dset = l1d.setOfLine(line);
                if (data_memo_legal && data_memo[dset] == line
                    && data_memo_dirty[dset] != 0) {
                    ++data_repeat_hits;
                } else {
                    const HitLevel level =
                        hierarchy_.accessDataFast(addr, true, pc);
                    data_memo[dset] = line;
                    data_memo_dirty[dset] = 1;
                    // Write-allocate RFO read now, dirty writeback
                    // later.
                    if (level == HitLevel::Memory)
                        dram_code[i] = 2;
                }
            } else if (cls == isa::UopClass::Branch) {
                branch_idx[branch_count++] = static_cast<std::uint32_t>(i);
            }
        }

        // TLB passes: itlb over the pc lane, dtlb over load addresses.
        std::uint64_t itlb_walks = 0;
        std::uint64_t dtlb_walks = 0;
        if (tlb) {
            for (std::size_t i = 0; i < n; ++i) {
                const TlbOutcome outcome = itlb_.access(pcs[i]);
                fetch_stall[i] += outcome.extraLatency;
                if (!outcome.l1Hit && !outcome.l2Hit)
                    ++itlb_walks;
            }
            for (std::size_t j = 0; j < mem_count; ++j) {
                const std::size_t i = mem_idx[j];
                if (classes[i] != isa::UopClass::Load)
                    continue;
                const TlbOutcome outcome = dtlb_.access(addrs[i]);
                mem_lat[i] += outcome.extraLatency;
                // A translation longer than the L1 hit pipeline
                // behaves like a miss for overlap purposes.
                l1_missed[i] |= outcome.extraLatency > 0;
                if (!outcome.l1Hit && !outcome.l2Hit)
                    ++dtlb_walks;
            }
        }

        b.n = static_cast<std::uint32_t>(n);
        b.memCount = static_cast<std::uint32_t>(mem_count);
        b.branchCount = static_cast<std::uint32_t>(branch_count);
        b.numLoads = num_loads;
        b.numStores = num_stores;
        for (unsigned v = 0; v < 4; ++v)
            b.loadsAt[v] = loads_at[v];
        b.itlbWalks = itlb_walks;
        b.dtlbWalks = dtlb_walks;

        // Lane recording: the scratch lanes are now final (only the
        // branch pass still writes, and only to mispred), so a clone-
        // group sibling replaying the identical stream can import
        // them plus the counter deltas instead of re-running the cache
        // and TLB passes. One bulk append per lane.
        if (record != nullptr) {
            b.laneOffset =
                static_cast<std::uint32_t>(record->fetchStall.size());
            b.memOffset =
                static_cast<std::uint32_t>(record->memIdx.size());
            b.branchOffset =
                static_cast<std::uint32_t>(record->branchIdx.size());
            record->fetchStall.insert(record->fetchStall.end(),
                                      fetch_stall, fetch_stall + n);
            record->memLatency.insert(record->memLatency.end(), mem_lat,
                                      mem_lat + n);
            record->l1Miss.insert(record->l1Miss.end(), l1_missed,
                                  l1_missed + n);
            record->dram.insert(record->dram.end(), dram_code,
                                dram_code + n);
            record->memIdx.insert(record->memIdx.end(), mem_idx,
                                  mem_idx + mem_count);
            record->branchIdx.insert(record->branchIdx.end(),
                                     branch_idx,
                                     branch_idx + branch_count);
            record->batches.push_back(b);
        }
    }

    // Per-op memory-side lanes the remaining passes read: the
    // leader's recorded lanes when importing, else the scratch the
    // cache and TLB passes just staged.
    const unsigned *__restrict const fetch_stall = imported != nullptr
        ? import->fetchStall.data() + b.laneOffset
        : fetchStall_.data();
    const unsigned *__restrict const mem_lat = imported != nullptr
        ? import->memLatency.data() + b.laneOffset
        : memLatency_.data();
    const std::uint8_t *__restrict const l1_missed = imported != nullptr
        ? import->l1Miss.data() + b.laneOffset
        : l1Miss_.data();
    const std::uint8_t *__restrict const dram_code = imported != nullptr
        ? import->dram.data() + b.laneOffset
        : dram_.data();
    const std::uint32_t *__restrict const mem_idx = imported != nullptr
        ? import->memIdx.data() + b.memOffset
        : memIdx_.data();
    const std::uint32_t *__restrict const branch_idx = imported != nullptr
        ? import->branchIdx.data() + b.branchOffset
        : branchIdx_.data();

    // Branch pass: walks the branch index list in op order, so the
    // predictor/BTB see the exact consume() sequence.
    std::fill(mispred, mispred + n, std::uint8_t{0});
    std::uint64_t num_mispredicts = 0;
    std::uint64_t kinds[isa::kNumBranchKinds + 1] = {};
    for (std::size_t j = 0; j < b.branchCount; ++j) {
        const std::size_t i = branch_idx[j];
        const isa::BranchKind kind = kindv[i];
        SPEC17_ASSERT(kind != isa::BranchKind::None,
                      "branch with kind None reached simulator");
        ++kinds[static_cast<std::size_t>(kind)];
        if (branches_.execute(kind, pcs[i], takenv[i] != 0,
                              targets[i])) {
            mispred[i] = 1;
            ++num_mispredicts;
        }
    }

    // Footprint pass: pc sub-pass, then data sub-pass, each with a
    // local last-page filter backed by a direct-mapped seen-page
    // filter (see pcPageSeen_) so already-counted pages skip the
    // footprint hash probe entirely (inserts are idempotent).
    {
        std::uint64_t *__restrict const pc_seen = pcPageSeen_.data();
        std::uint64_t *__restrict const data_seen = dataPageSeen_.data();
        std::uint64_t last_pc_page = ~std::uint64_t(0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t page =
                pcs[i] / FootprintTracker::kPageBytes;
            if (page == last_pc_page)
                continue;
            last_pc_page = page;
            std::uint64_t &slot = pc_seen[page % kPcPageSeenSlots];
            if (slot != page) {
                slot = page;
                footprint_.touch(pcs[i]);
            }
        }
        std::uint64_t last_data_page = ~std::uint64_t(0);
        for (std::size_t j = 0; j < b.memCount; ++j) {
            const std::size_t i = mem_idx[j];
            const std::uint64_t page =
                addrs[i] / FootprintTracker::kPageBytes;
            if (page == last_data_page)
                continue;
            last_data_page = page;
            std::uint64_t &slot = data_seen[page % kDataPageSeenSlots];
            if (slot != page) {
                slot = page;
                footprint_.touch(addrs[i]);
            }
        }
    }

    // Retire pass: serial core timing fed by the staged scratch
    // lanes, with the cross-op state register-hoisted for the whole
    // batch (see CoreModel::retireBatch).
    core_.retireBatch(classes, dep_load, dep_prev, mem_lat, l1_missed,
                      fetch_stall, mispred, dram_code, n);

    // Hierarchy stat credits for memo-skipped repeats; all zero on
    // import, whose hierarchy holds no observable state.
    if (inst_repeat_hits != 0)
        hierarchy_.creditInstHits(inst_repeat_hits);
    if (data_repeat_hits != 0)
        hierarchy_.creditDataHits(data_repeat_hits);
    if (way_pred && data_repeat_load_hits != 0)
        hierarchy_.creditDataWayPredictions(data_repeat_load_hits);
    if (tlb) {
        counters_.add(PerfEvent::ItlbMissesWalk, b.itlbWalks);
        counters_.add(PerfEvent::DtlbLoadMissesWalk, b.dtlbWalks);
    }

    // Counter flush.
    counters_.add(PerfEvent::InstRetiredAny, n);
    counters_.add(PerfEvent::UopsRetiredAll, n);
    counters_.add(PerfEvent::MemUopsRetiredAllLoads, b.numLoads);
    counters_.add(PerfEvent::MemUopsRetiredAllStores, b.numStores);
    const std::uint64_t l2 =
        b.loadsAt[static_cast<std::size_t>(HitLevel::L2)];
    const std::uint64_t l3 =
        b.loadsAt[static_cast<std::size_t>(HitLevel::L3)];
    const std::uint64_t mem =
        b.loadsAt[static_cast<std::size_t>(HitLevel::Memory)];
    counters_.add(PerfEvent::MemLoadUopsRetiredL1Hit,
                  b.loadsAt[static_cast<std::size_t>(HitLevel::L1)]);
    counters_.add(PerfEvent::MemLoadUopsRetiredL1Miss, l2 + l3 + mem);
    counters_.add(PerfEvent::MemLoadUopsRetiredL2Hit, l2);
    counters_.add(PerfEvent::MemLoadUopsRetiredL2Miss, l3 + mem);
    counters_.add(PerfEvent::MemLoadUopsRetiredL3Hit, l3);
    counters_.add(PerfEvent::MemLoadUopsRetiredL3Miss, mem);
    counters_.add(PerfEvent::BrInstExecAllBranches, b.branchCount);
    counters_.add(
        PerfEvent::BrInstExecAllConditional,
        kinds[static_cast<std::size_t>(isa::BranchKind::Conditional)]);
    counters_.add(
        PerfEvent::BrInstExecAllDirectJmp,
        kinds[static_cast<std::size_t>(isa::BranchKind::DirectJump)]);
    counters_.add(PerfEvent::BrInstExecAllDirectNearCall,
                  kinds[static_cast<std::size_t>(
                      isa::BranchKind::DirectNearCall)]);
    counters_.add(PerfEvent::BrInstExecAllIndirectJumpNonCallRet,
                  kinds[static_cast<std::size_t>(
                      isa::BranchKind::IndirectJumpNonCallRet)]);
    counters_.add(PerfEvent::BrInstExecAllIndirectNearReturn,
                  kinds[static_cast<std::size_t>(
                      isa::BranchKind::IndirectNearReturn)]);
    counters_.add(PerfEvent::BrMispExecAllBranches, num_mispredicts);
}

void
CpuSimulator::prefillData(std::uint64_t base, std::uint64_t bytes,
                          HitLevel level)
{
    SPEC17_ASSERT(level != HitLevel::Memory,
                  "prefill to memory is a no-op");
    hierarchy_.setL3Context(l3Context_);
    const unsigned line = config_.hierarchy.l1d.lineBytes;
    const std::uint64_t first = base / line * line;
    for (std::uint64_t addr = first; addr < base + bytes; addr += line)
        hierarchy_.fillTo(addr, level);
    // fillTo can evict the memo'd data line.
    invalidateLineMemos();
}

std::uint64_t
CpuSimulator::step(trace::TraceSource &source, std::uint64_t max_ops,
                   MemoryLaneLog *record, const MemoryLaneLog *import)
{
    if (unbatched_) {
        SPEC17_ASSERT(record == nullptr && import == nullptr,
                      "lane recording and importing require the batched "
                      "lane");
        return stepUnbatched(source, max_ops);
    }
    SPEC17_ASSERT(record == nullptr || import == nullptr,
                  "a step either records or imports memory lanes");
    // Re-assert this core's shared-L3 context: a sibling core's chunk
    // may have moved the shared cache's active context since our last
    // chunk. No-op for a private L3.
    hierarchy_.setL3Context(l3Context_);
    std::size_t cursor = 0;
    std::uint64_t consumed = 0;
    while (consumed < max_ops) {
        // Clamping each batch to the remaining budget keeps step()'s
        // exact op-count contract: telemetry sampling boundaries and
        // watchdog checks (both applied between step() calls) observe
        // identical counts on either lane.
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(batchOps_, max_ops - consumed));
        // A source with resident lanes (the replay arena) hands back a
        // view the passes consume in place; everything else fills
        // batch_.
        std::size_t at = 0;
        std::size_t got = 0;
        const trace::MicroOpBatch &lanes =
            source.nextLanes(batch_, want, at, got);
        if (got != 0) {
            const MemoryLaneLog::Batch *imported = nullptr;
            if (import != nullptr) {
                SPEC17_ASSERT(cursor < import->batches.size(),
                              "memory-lane log exhausted: the sibling's "
                              "batch schedule diverged from its "
                              "leader's");
                imported = &import->batches[cursor++];
            }
            consumeBatch(lanes, at, got, record, import, imported);
        }
        consumed += got;
        if (got < want)
            break;
    }
    SPEC17_ASSERT(import == nullptr || cursor == import->batches.size(),
                  "memory-lane log not consumed exactly (used ", cursor,
                  " of ", import->batches.size(),
                  " recorded batches): the sibling's batch schedule "
                  "diverged from its leader's");
    return consumed;
}

std::uint64_t
CpuSimulator::stepUnbatched(trace::TraceSource &source,
                            std::uint64_t max_ops)
{
    // The per-op lane bypasses the memos' bookkeeping, so they must
    // not survive into a later batched step.
    invalidateLineMemos();
    hierarchy_.setL3Context(l3Context_);
    isa::MicroOp op;
    std::uint64_t consumed = 0;
    while (consumed < max_ops && source.next(op)) {
        consume(op);
        ++consumed;
    }
    return consumed;
}

counters::CounterSet
CpuSimulator::snapshot() const
{
    counters::CounterSet snap = counters_;
    snap.set(PerfEvent::CpuClkUnhaltedRefTsc,
             static_cast<std::uint64_t>(core_.cycles()));
    snap.raiseTo(PerfEvent::RssBytes, footprint_.rssBytes());
    return snap;
}

SimResult
CpuSimulator::finish(const trace::TraceSource &source)
{
    SimResult result;
    result.counters = snapshot();
    result.counters.raiseTo(
        PerfEvent::VszBytes,
        std::max(source.virtualReserveBytes(), footprint_.rssBytes()));
    result.cycles = core_.cycles();
    result.seconds = core_.secondsFor(result.cycles);
    return result;
}

SimResult
CpuSimulator::measuredSinceWarmup(const trace::TraceSource &source,
                                  const counters::CounterSet &warm,
                                  double warm_cycles)
{
    SimResult result = finish(source);
    const std::uint64_t vsz = result.counters.get(PerfEvent::VszBytes);
    result.counters = result.counters.diff(warm);
    result.counters.set(PerfEvent::VszBytes, vsz);
    result.counters.set(PerfEvent::RssBytes, footprint_.rssBytes());
    result.cycles -= warm_cycles;
    result.seconds = core_.secondsFor(result.cycles);
    return result;
}

SimResult
CpuSimulator::run(trace::TraceSource &source)
{
    constexpr std::uint64_t kChunk = 1 << 20;
    while (step(source, kChunk) == kChunk) {
    }
    return finish(source);
}

} // namespace sim
} // namespace spec17
