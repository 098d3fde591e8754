/**
 * @file
 * The Link Table (LT): the second-level table of the CAP predictor
 * (section 3.1). Indexed by the LSBs of the compressed history; the
 * remaining history MSBs form a tag used as a confidence filter
 * (section 3.4), which also enables a set-associative organization.
 * Each entry records the predicted next base address (the link) and
 * the pollution-free (PF) bits of section 3.5: the link is
 * overwritten only when the same update is seen twice in a row,
 * giving hysteresis and keeping irregular or very long sequences
 * from evicting useful links. The PF bits can optionally live in a
 * separate, larger direct-mapped table indexed by the extended
 * history (section 3.5, last paragraph).
 *
 * Like the LoadBuffer, the table is laid out struct-of-arrays
 * (DESIGN.md section 8): each way's probe state packs into one
 * 64-bit word — the valid bit in bit 63 over the low 63 tag bits
 * (history widths are capped at 63, so the tag always fits) — so a
 * lookup is a single lane load and compare per way. The link, full
 * tag, LRU stamp, and PF bits live in parallel lanes touched only
 * when the probe resolves; all lanes come from one LaneArena, shared
 * with the load buffer when the owning predictor provides one. The
 * PF-validity lane is a packed byte lane (no vector<bool> bit
 * proxies on the update path). One dirty flag per set (DirtySets)
 * sits beside the lanes: update, setImageAt and clear raise it for
 * the dirty-set audit (core/audit.hh).
 */

#ifndef CLAP_CORE_LINK_TABLE_HH
#define CLAP_CORE_LINK_TABLE_HH

#include <cassert>
#include <cstdint>
#include <memory>

#include "core/config.hh"
#include "core/probe_lanes.hh"
#include "util/bits.hh"

namespace clap
{

/**
 * Flat view of one link-table slot: what entryAt() used to return by
 * reference. The live state is lane-resident; use imageAt() /
 * setImageAt() (serialization, audit, fault injection).
 */
struct LTEntry
{
    bool valid = false;
    std::uint64_t tag = 0;  ///< history MSBs
    std::uint64_t link = 0; ///< predicted next base address
    std::uint8_t pf = 0;    ///< pollution-free bits of the last update
    bool pfValid = false;   ///< a PF observation has been recorded
    std::uint64_t lru = 0;  ///< replacement stamp (associative LT)
};

/** Result of a link-table lookup. */
struct LTLookup
{
    bool hit = false;      ///< entry valid (an address can be formed)
    bool tagMatch = false; ///< tag confidence filter passed
    std::uint64_t link = 0;
};

/** Link table with tags, optional associativity, and PF bits. */
class LinkTable
{
  public:
    /**
     * @param config Component configuration (validated by the owner).
     * @param arena  Arena to carve the lanes from (the owning
     *               predictor's shared block); nullptr = private
     *               arena sized by laneBytes(config).
     */
    explicit LinkTable(const CapConfig &config,
                       LaneArena *arena = nullptr)
        : config_(config),
          assoc_(config.ltAssoc < 1 ? 1 : config.ltAssoc),
          numEntries_(std::size_t{1} << config.ltIndexBits()),
          sets_(numEntries_ / assoc_),
          setMask_(sets_ - 1),
          pfTableSize_(config.pfTableBits != 0
                           ? std::size_t{1} << config.pfTableBits
                           : 0),
          dirty_(sets_)
    {
        assert(assoc_ == 1 || config.ltTagBits > 0);
        assert(isPowerOf2(sets_));
        if (arena == nullptr) {
            ownArena_ = std::make_unique<LaneArena>(laneBytes(config));
            arena = ownArena_.get();
        }
        probe_ = arena->alloc<std::uint64_t>(numEntries_);
        tags_ = arena->alloc<std::uint64_t>(numEntries_);
        links_ = arena->alloc<std::uint64_t>(numEntries_);
        lru_ = arena->alloc<std::uint64_t>(numEntries_);
        pf_ = arena->alloc<std::uint8_t>(numEntries_);
        pfValid_ = arena->alloc<std::uint8_t>(numEntries_);
        if (pfTableSize_ != 0) {
            pfTable_ = arena->alloc<std::uint8_t>(pfTableSize_);
            pfTableValid_ = arena->alloc<std::uint8_t>(pfTableSize_);
        }
    }

    LinkTable(const LinkTable &) = delete;
    LinkTable &operator=(const LinkTable &) = delete;

    /** Arena bytes the lanes of @p config consume. */
    static std::size_t
    laneBytes(const CapConfig &config)
    {
        const std::size_t entries = std::size_t{1}
                                    << config.ltIndexBits();
        const std::size_t pf_size =
            config.pfTableBits != 0
                ? std::size_t{1} << config.pfTableBits
                : 0;
        return 4 * LaneArena::laneBytes<std::uint64_t>(entries) +
               2 * LaneArena::laneBytes<std::uint8_t>(entries) +
               2 * LaneArena::laneBytes<std::uint8_t>(pf_size);
    }

    /** Look up the entry selected by compressed history @p hist. */
    LTLookup
    lookup(std::uint64_t hist) const
    {
        LTLookup result;
        const std::size_t base = setIndex(hist) * assoc_;
        if (config_.ltTagBits == 0) {
            // Tags disabled: any valid way matches unconditionally.
            for (unsigned w = 0; w < assoc_; ++w) {
                if ((probe_[base + w] & kValidBit) != 0) {
                    result.hit = true;
                    result.tagMatch = true;
                    result.link = links_[base + w];
                    return result;
                }
            }
            return result;
        }
        const std::uint64_t hist_tag = tag(hist);
        const std::uint64_t want = kValidBit | (hist_tag & ~kValidBit);
        for (unsigned w = 0; w < assoc_; ++w) {
            const std::uint64_t word = probe_[base + w];
            // The packed word folds the tag's low 63 bits under the
            // valid bit; the full-tag lane settles the (raw-write
            // only) case of a tag with bit 63 set.
            if (word == want && tags_[base + w] == hist_tag) {
                result.hit = true;
                result.tagMatch = true;
                result.link = links_[base + w];
                return result;
            }
            if (w == 0 && assoc_ == 1 && (word & kValidBit) != 0) {
                // Direct-mapped: an address can still be formed from
                // a tag-mismatching entry (the tag is a confidence
                // filter, not a validity condition).
                result.hit = true;
                result.link = links_[base];
            }
        }
        return result;
    }

    /**
     * Update the entry selected by @p hist with the observed next
     * base @p base, subject to the PF policy: the PF bits always
     * update; the link and tag update only when the new PF bits match
     * the stored ones (i.e. the same link is seen twice in a row), or
     * when the entry is invalid (cold install), or when PF bits are
     * disabled.
     *
     * @return true when the link was actually written.
     */
    bool
    update(std::uint64_t hist, std::uint64_t base)
    {
        const std::size_t victim = selectVictim(hist);
        const std::uint8_t pf_new = pfBitsOf(base);
        dirty_.mark(setIndex(hist));

        bool pf_match;
        if (config_.pfTableBits != 0) {
            const std::size_t pf_index = static_cast<std::size_t>(
                hist & mask(config_.pfTableBits));
            pf_match = pfTableValid_[pf_index] != 0 &&
                pfTable_[pf_index] == pf_new;
            pfTable_[pf_index] = pf_new;
            pfTableValid_[pf_index] = 1;
        } else {
            pf_match = pfValid_[victim] != 0 && pf_[victim] == pf_new;
            pf_[victim] = pf_new;
            pfValid_[victim] = 1;
        }

        const bool was_valid = (probe_[victim] & kValidBit) != 0;
        const bool install =
            !was_valid || config_.pfBits == 0 || pf_match;
        if (install) {
            if (was_valid && links_[victim] != base)
                ++linkOverwrites_;
            const std::uint64_t new_tag = tag(hist);
            tags_[victim] = new_tag;
            probe_[victim] = kValidBit | (new_tag & ~kValidBit);
            links_[victim] = base;
            lru_[victim] = ++stamp_;
            ++linkWrites_;
        } else {
            ++pfFiltered_;
        }
        return install;
    }

    /** Number of link installations performed. */
    std::uint64_t linkWrites() const { return linkWrites_; }

    /** Installs that replaced a live entry holding a different link
     *  (pollution the PF bits did not catch). */
    std::uint64_t linkOverwrites() const { return linkOverwrites_; }

    /** Number of updates filtered out by the PF mechanism. */
    std::uint64_t pfFiltered() const { return pfFiltered_; }

    std::size_t numEntries() const { return numEntries_; }
    std::size_t numSets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

    /// @name Flat slot access (state dumps, audit, fault injection)
    /// None of these touch LRU. @pre i < numEntries()
    /// @{

    /** Flat snapshot of slot @p i. */
    LTEntry
    imageAt(std::size_t i) const
    {
        LTEntry entry;
        entry.valid = (probe_[i] & kValidBit) != 0;
        entry.tag = tags_[i];
        entry.link = links_[i];
        entry.pf = pf_[i];
        entry.pfValid = pfValid_[i] != 0;
        entry.lru = lru_[i];
        return entry;
    }

    /** Overwrite slot @p i from a flat image, recomputing the packed
     *  probe word so it always matches the stored tag. */
    void
    setImageAt(std::size_t i, const LTEntry &entry)
    {
        tags_[i] = entry.tag;
        probe_[i] =
            entry.valid ? (kValidBit | (entry.tag & ~kValidBit)) : 0;
        links_[i] = entry.link;
        pf_[i] = entry.pf;
        pfValid_[i] = entry.pfValid ? 1 : 0;
        lru_[i] = entry.lru;
        dirty_.mark(i / assoc_);
    }

    /** Lane coherence of slot @p i: the packed probe word must agree
     *  with the full-tag lane and validity (core/audit.hh). */
    bool
    lanesCoherentAt(std::size_t i) const
    {
        const std::uint64_t word = probe_[i];
        if ((word & kValidBit) == 0)
            return word == 0;
        return word == (kValidBit | (tags_[i] & ~kValidBit));
    }
    /// @}

    const CapConfig &config() const { return config_; }

    /** Invalidate all entries (and the decoupled PF-table validity;
     *  the PF values themselves persist, as in the scalar layout). */
    void
    clear()
    {
        for (std::size_t i = 0; i < numEntries_; ++i) {
            probe_[i] = 0;
            tags_[i] = 0;
            links_[i] = 0;
            lru_[i] = 0;
            pf_[i] = 0;
            pfValid_[i] = 0;
        }
        for (std::size_t i = 0; i < pfTableSize_; ++i)
            pfTableValid_[i] = 0;
        dirty_.markAll();
    }

    /** Sets changed since they last passed the dirty-set audit. */
    DirtySets &dirtySets() { return dirty_; }

    /// @name State serialization support (core/state_io)
    /// Raw access to the LRU clock, the update counters, and the
    /// decoupled PF table so a restored link table reproduces
    /// replacement and hysteresis decisions bit-for-bit.
    /// @{
    std::uint64_t lruClock() const { return stamp_; }
    void setLruClock(std::uint64_t clock) { stamp_ = clock; }

    void
    setCounters(std::uint64_t writes, std::uint64_t overwrites,
                std::uint64_t pf_filtered)
    {
        linkWrites_ = writes;
        linkOverwrites_ = overwrites;
        pfFiltered_ = pf_filtered;
    }

    std::size_t pfTableSize() const { return pfTableSize_; }

    /** @pre i < pfTableSize() */
    std::uint8_t pfTableValueAt(std::size_t i) const { return pfTable_[i]; }
    bool pfTableValidAt(std::size_t i) const { return pfTableValid_[i] != 0; }

    void
    setPfTableAt(std::size_t i, std::uint8_t value, bool valid)
    {
        pfTable_[i] = value;
        pfTableValid_[i] = valid ? 1 : 0;
    }
    /// @}

  private:
    static constexpr std::uint64_t kValidBit = std::uint64_t{1} << 63;

    std::size_t
    setIndex(std::uint64_t hist) const
    {
        // == (hist & mask(ltIndexBits())) % sets_ for the power-of-two
        // set counts config validation guarantees.
        return static_cast<std::size_t>(hist) & setMask_;
    }

    std::uint64_t
    tag(std::uint64_t hist) const
    {
        if (config_.ltTagBits == 0)
            return 0;
        return bits(hist, config_.ltIndexBits() + config_.ltTagBits - 1,
                    config_.ltIndexBits());
    }

    /**
     * Way selection for an update: a tag-matching way if present,
     * otherwise the last invalid way, otherwise the LRU way — the
     * scalar selectVictim() order exactly.
     */
    std::size_t
    selectVictim(std::uint64_t hist) const
    {
        const std::size_t base = setIndex(hist) * assoc_;
        const std::uint64_t hist_tag = tag(hist);
        std::size_t victim = base;
        for (unsigned w = 0; w < assoc_; ++w) {
            const std::size_t slot = base + w;
            const bool valid = (probe_[slot] & kValidBit) != 0;
            if (valid && tags_[slot] == hist_tag)
                return slot;
            if (!valid)
                victim = slot;
            else if ((probe_[victim] & kValidBit) != 0 &&
                     lru_[slot] < lru_[victim])
                victim = slot;
        }
        return victim;
    }

    CapConfig config_;
    unsigned assoc_;
    std::size_t numEntries_;
    std::size_t sets_;
    std::size_t setMask_;
    std::size_t pfTableSize_;
    std::unique_ptr<LaneArena> ownArena_; ///< when none was provided
    std::uint64_t *probe_ = nullptr; ///< valid bit + low 63 tag bits
    std::uint64_t *tags_ = nullptr;  ///< full tags
    std::uint64_t *links_ = nullptr;
    std::uint64_t *lru_ = nullptr;
    std::uint8_t *pf_ = nullptr;
    std::uint8_t *pfValid_ = nullptr; ///< packed bytes, no bit proxies
    std::uint8_t *pfTable_ = nullptr;
    std::uint8_t *pfTableValid_ = nullptr;
    DirtySets dirty_;
    std::uint64_t stamp_ = 0;
    std::uint64_t linkWrites_ = 0;
    std::uint64_t linkOverwrites_ = 0;
    std::uint64_t pfFiltered_ = 0;

    /** PF bits: bits 2..2+pfBits-1 of the base address. */
    std::uint8_t
    pfBitsOf(std::uint64_t base) const
    {
        if (config_.pfBits == 0)
            return 0;
        return static_cast<std::uint8_t>(
            bits(base, 2 + config_.pfBits - 1, 2));
    }
};

} // namespace clap

#endif // CLAP_CORE_LINK_TABLE_HH
