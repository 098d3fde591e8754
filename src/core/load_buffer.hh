/**
 * @file
 * The Load Buffer (LB): the per-static-load first-level table shared
 * by the CAP and stride components of the hybrid predictor (sections
 * 3.1 and 3.7). Set-associative, PC-tagged, LRU-replaced.
 *
 * The table is laid out struct-of-arrays (DESIGN.md section 8): the
 * probe state lives in dense lanes — a packed control word per set
 * (one valid+fingerprint byte per way, probed with the multi-tag
 * compare of core/probe_lanes.hh), a full-tag lane, and an LRU-stamp
 * lane — while the bulk per-entry state (the CAP fields, the stride
 * fields, the hybrid selector) stays in an array-of-structs cold lane
 * touched only on hit. All hot lanes come from one LaneArena, shared
 * with the link table when the owning predictor provides one.
 *
 * Beside the lanes sits one dirty flag per set (DirtySets): lookup and
 * acquire hits, allocate, the mutable coldAt, setImageAt and clear
 * raise it, so the dirty-set audit (core/audit.hh) checks only the
 * sets that changed since they last passed.
 *
 * Every observable behavior — lookup/acquire/allocate semantics, LRU
 * stamps, generation handles, entry images — is bit-for-bit identical
 * to the scalar array-of-structs implementation; the differential
 * fuzz tests in tests/test_probe_lanes.cc hold the two to equality.
 */

#ifndef CLAP_CORE_LOAD_BUFFER_HH
#define CLAP_CORE_LOAD_BUFFER_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/history.hh"
#include "core/predictor.hh"
#include "core/probe_lanes.hh"
#include "util/bits.hh"
#include "util/sat_counter.hh"

namespace clap
{

/**
 * The cold bulk state of one load-buffer entry: everything the
 * components read or write after the probe has resolved. The probe
 * state (valid, tag, LRU stamp) lives in the LoadBuffer's lanes; use
 * LBEntryImage / LoadBuffer::imageAt() when a full flat view is
 * needed (serialization, audit, fault injection).
 */
struct LBEntry
{
    /// @name Shared fields
    /// @{
    std::uint8_t offsetLsb = 0; ///< 8 LSBs of the immediate offset
    /// @}

    /// @name CAP fields (section 3)
    /// @{
    bool capInit = false;     ///< first resolution seen (fields valid)
    HistoryRegister hist;     ///< architectural history (updated at
                              ///< resolution time)
    HistoryRegister specHist; ///< speculative history (pipelined mode)
    SatCounter capConf{2, 0};
    std::uint64_t capGhrPattern = 0; ///< last-mispredict GHR pattern
    bool capGhrValid = false;
    std::uint32_t capPathOk = ~0u;   ///< per-path accuracy bitmap
    std::uint32_t capPending = 0;    ///< unresolved predictions
    bool capBlocked = false;         ///< stop speculating until drain
    bool capSpecStale = false;       ///< specHist diverged (LT miss)
    /// @}

    /// @name Stride fields (sections 3.7, 5.2)
    /// @{
    bool lastValid = false;
    std::uint64_t lastAddr = 0;
    std::int64_t stride = 0;
    std::int64_t candStride = 0; ///< two-delta candidate stride
    SatCounter strideConf{2, 0};
    std::uint64_t strideGhrPattern = 0;
    bool strideGhrValid = false;
    std::uint32_t run = 0;        ///< consecutive correct predictions
    std::uint32_t interval = 0;   ///< learned run length
    bool intervalValid = false;
    std::uint32_t stridePending = 0;
    std::uint64_t specLastAddr = 0; ///< last *predicted* address
    bool strideBlocked = false;
    /// @}

    /// @name Hybrid selector (section 3.7)
    /// @{
    SatCounter selector{2, 2}; ///< 0/1 stride, 2/3 CAP; init weak CAP
    /// @}
};

/**
 * Flat per-slot view joining the lane-resident probe state with the
 * cold fields: what entryAt() used to return by reference. Used by
 * state serialization, the auditor, telemetry, and fault injection.
 */
struct LBEntryImage : LBEntry
{
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lruStamp = 0;
};

/**
 * Set-associative, LRU-replaced table of LBEntry indexed by load PC.
 */
class LoadBuffer
{
  public:
    /**
     * @param config Table geometry (validated by the owning
     *               predictor; sets() is a power of two because
     *               entries is and assoc divides it).
     * @param arena  Arena to carve the probe lanes from (the owning
     *               predictor's shared block); nullptr = private
     *               arena sized by laneBytes(config).
     */
    explicit LoadBuffer(const LoadBufferConfig &config,
                        LaneArena *arena = nullptr)
        : config_(config),
          sets_(config.sets()),
          setMask_(sets_ - 1),
          assoc_(config.assoc),
          assocShift_(floorLog2(config.assoc)),
          ctrlWordsPerSet_((config.assoc + 7) / 8),
          cold_(config.entries),
          gens_(config.entries, 0),
          dirty_(sets_)
    {
        assert(isPowerOf2(sets_) && isPowerOf2(assoc_));
        if (arena == nullptr) {
            ownArena_ = std::make_unique<LaneArena>(laneBytes(config));
            arena = ownArena_.get();
        }
        ctrl_ = arena->alloc<std::uint64_t>(sets_ * ctrlWordsPerSet_);
        tags_ = arena->alloc<std::uint64_t>(config.entries);
        lru_ = arena->alloc<std::uint64_t>(config.entries);
    }

    LoadBuffer(const LoadBuffer &) = delete;
    LoadBuffer &operator=(const LoadBuffer &) = delete;

    /** Arena bytes the probe lanes of @p config consume. */
    static std::size_t
    laneBytes(const LoadBufferConfig &config)
    {
        const std::size_t ctrl_words =
            config.sets() * ((config.assoc + 7) / 8);
        return LaneArena::laneBytes<std::uint64_t>(ctrl_words) +
               2 * LaneArena::laneBytes<std::uint64_t>(config.entries);
    }

    /** Find the entry for @p pc, or nullptr on miss. Touches LRU. */
    LBEntry *
    lookup(std::uint64_t pc)
    {
        const std::size_t set = setIndex(pc);
        const std::uint64_t tag = pcTag(pc);
        const std::size_t base = set << assocShift_;
        prefetchRead(&cold_[base]);
        const std::uint8_t target = probe::ctrlByte(tag);
        const std::uint64_t *ctrl = &ctrl_[set * ctrlWordsPerSet_];
        for (std::size_t word = 0; word < ctrlWordsPerSet_; ++word) {
            std::uint32_t ways = probe::candidateWays(ctrl[word], target);
            const std::size_t word_base = base + word * 8;
            while (ways != 0) {
                // Ascending way order + full-tag confirmation keeps
                // the scalar first-match semantics exactly.
                const std::size_t slot =
                    word_base + std::countr_zero(ways);
                if (tags_[slot] == tag) {
                    lru_[slot] = ++stamp_;
                    dirty_.mark(set);
                    return &cold_[slot];
                }
                ways &= ways - 1;
            }
        }
        return nullptr;
    }

    /** Handle to @p entry for revalidation at update time.
     *  @pre entry is a reference into this buffer */
    LBHandle
    handleOf(const LBEntry &entry) const
    {
        LBHandle handle;
        handle.slot = static_cast<std::uint32_t>(&entry - cold_.data());
        handle.gen = gens_[handle.slot];
        handle.valid = true;
        return handle;
    }

    /**
     * The entry for @p pc, using @p handle to skip the associative
     * search when it still designates @p pc's live entry. Equivalent
     * to lookup(pc) in every observable way — the fast path performs
     * the same single LRU touch a lookup hit would — so predictors can
     * substitute it for the update-time lookup without changing
     * results. A stale handle (slot reallocated, entry invalidated, or
     * tag rewritten, e.g. by fault injection) degrades to lookup(pc).
     */
    LBEntry *
    acquire(std::uint64_t pc, const LBHandle &handle)
    {
        if (handle.valid && handle.slot < cold_.size() &&
            gens_[handle.slot] == handle.gen) {
            const std::size_t slot = handle.slot;
            prefetchRead(&cold_[slot]);
            if (validAt(slot) && tags_[slot] == pcTag(pc)) {
                lru_[slot] = ++stamp_;
                dirty_.mark(slot >> assocShift_);
                return &cold_[slot];
            }
        }
        return lookup(pc);
    }

    /**
     * Allocate (or re-initialize) the entry for @p pc, evicting the
     * LRU way of its set. The returned entry is reset to defaults
     * with the (lane-resident) tag set and valid raised.
     */
    LBEntry &
    allocate(std::uint64_t pc)
    {
        const std::size_t set = setIndex(pc);
        const std::size_t base = set << assocShift_;
        std::size_t victim = base;
        for (unsigned w = 1; w < assoc_; ++w) {
            if (!validAt(victim))
                break;
            const std::size_t slot = base + w;
            if (!validAt(slot) || lru_[slot] < lru_[victim])
                victim = slot;
        }
        // Reusing the slot invalidates any handle captured against
        // its previous occupant.
        ++gens_[victim];
        cold_[victim] = LBEntry{};
        const std::uint64_t tag = pcTag(pc);
        tags_[victim] = tag;
        lru_[victim] = ++stamp_;
        setCtrlByteAt(victim, probe::ctrlByte(tag));
        dirty_.mark(set);
        ++allocations_;
        return cold_[victim];
    }

    /** Number of allocations performed (eviction pressure metric). */
    std::uint64_t allocations() const { return allocations_; }

    const LoadBufferConfig &config() const { return config_; }

    /** Total entry slots (valid or not). */
    std::size_t numEntries() const { return cold_.size(); }

    std::size_t numSets() const { return sets_; }

    /// @name Flat slot access (state dumps, audit, fault injection)
    /// None of these touch LRU. @pre i < numEntries()
    /// @{

    /** Flat snapshot of slot @p i (probe lanes + cold fields). */
    LBEntryImage
    imageAt(std::size_t i) const
    {
        LBEntryImage image;
        static_cast<LBEntry &>(image) = cold_[i];
        image.valid = validAt(i);
        image.tag = tags_[i];
        image.lruStamp = lru_[i];
        return image;
    }

    /** Overwrite slot @p i from a flat image, recomputing the probe
     *  lanes so the control byte always matches the stored tag. */
    void
    setImageAt(std::size_t i, const LBEntryImage &image)
    {
        cold_[i] = image; // slices to the cold fields
        tags_[i] = image.tag;
        lru_[i] = image.lruStamp;
        setCtrlByteAt(i, image.valid ? probe::ctrlByte(image.tag)
                                     : std::uint8_t{0});
        dirty_.mark(i >> assocShift_);
    }

    /** Mutable cold fields of slot @p i (fault injection targets the
     *  histories and counters; the probe lanes are unaffected). */
    LBEntry &
    coldAt(std::size_t i)
    {
        dirty_.mark(i >> assocShift_);
        return cold_[i];
    }
    const LBEntry &coldAt(std::size_t i) const { return cold_[i]; }

    bool
    validAt(std::size_t i) const
    {
        return (ctrlByteAt(i) & 0x80u) != 0;
    }

    /** Lane coherence of slot @p i: a valid way's control byte must
     *  be the fingerprint of its full tag (core/audit.hh). */
    bool
    lanesCoherentAt(std::size_t i) const
    {
        const std::uint8_t ctrl = ctrlByteAt(i);
        return ctrl == 0 || ctrl == probe::ctrlByte(tags_[i]);
    }
    /// @}

    /** Invalidate all entries (and any outstanding handles). */
    void
    clear()
    {
        for (auto &entry : cold_)
            entry = LBEntry{};
        for (std::size_t i = 0; i < sets_ * ctrlWordsPerSet_; ++i)
            ctrl_[i] = 0;
        for (std::size_t i = 0; i < cold_.size(); ++i) {
            tags_[i] = 0;
            lru_[i] = 0;
        }
        for (auto &gen : gens_)
            ++gen;
        dirty_.markAll();
    }

    /** Sets changed since they last passed the dirty-set audit. */
    DirtySets &dirtySets() { return dirty_; }

    /// @name State serialization support (core/state_io)
    /// Raw access to the LRU clock and allocation counter so a
    /// restored buffer reproduces replacement decisions bit-for-bit.
    /// Generations are intentionally NOT serialized: a restore bumps
    /// them via clear(), which invalidates pre-snapshot handles, and a
    /// stale handle is documented to degrade to lookup() — observably
    /// identical.
    /// @{
    std::uint64_t lruClock() const { return stamp_; }
    void setLruClock(std::uint64_t clock) { stamp_ = clock; }
    void setAllocations(std::uint64_t count) { allocations_ = count; }
    /// @}

  private:
    std::size_t
    setIndex(std::uint64_t pc) const
    {
        return (pc >> 2) & setMask_;
    }

    std::uint64_t
    pcTag(std::uint64_t pc) const
    {
        return pc >> 2;
    }

    std::uint8_t
    ctrlByteAt(std::size_t slot) const
    {
        const std::size_t set = slot >> assocShift_;
        const unsigned way = slot & (assoc_ - 1);
        const std::uint64_t word =
            ctrl_[set * ctrlWordsPerSet_ + way / 8];
        return static_cast<std::uint8_t>(word >> (8 * (way % 8)));
    }

    void
    setCtrlByteAt(std::size_t slot, std::uint8_t value)
    {
        const std::size_t set = slot >> assocShift_;
        const unsigned way = slot & (assoc_ - 1);
        std::uint64_t &word = ctrl_[set * ctrlWordsPerSet_ + way / 8];
        const unsigned shift = 8 * (way % 8);
        word = (word & ~(std::uint64_t{0xff} << shift)) |
               (std::uint64_t{value} << shift);
    }

    LoadBufferConfig config_;
    std::size_t sets_;
    std::size_t setMask_;
    unsigned assoc_;
    unsigned assocShift_;
    std::size_t ctrlWordsPerSet_;
    std::unique_ptr<LaneArena> ownArena_; ///< when none was provided
    std::uint64_t *ctrl_ = nullptr; ///< packed control bytes, per set
    std::uint64_t *tags_ = nullptr; ///< full tags, per slot
    std::uint64_t *lru_ = nullptr;  ///< LRU stamps, per slot
    std::vector<LBEntry> cold_;
    std::vector<std::uint32_t> gens_; ///< per-slot allocation generation
    DirtySets dirty_;
    std::uint64_t stamp_ = 0;
    std::uint64_t allocations_ = 0;
};

} // namespace clap

#endif // CLAP_CORE_LOAD_BUFFER_HH
