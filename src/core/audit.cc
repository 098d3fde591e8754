#include "core/audit.hh"

#include <string>

#include "core/link_table.hh"
#include "core/load_buffer.hh"
#include "util/bits.hh"
#include "util/sat_counter.hh"

namespace clap
{

namespace
{

Error
corrupt(std::string message, const char *structure, std::size_t index)
{
    return makeError(ErrorCode::CorruptedState, std::move(message))
        .withContext(std::string(structure) + " entry " +
                     std::to_string(index));
}

/** Counter within its saturation range (defense against raw writes). */
bool
counterOk(const SatCounter &counter)
{
    return counter.value() <= counter.max();
}

/** The LB invariants of set @p set, in ascending slot order. */
Expected<void>
auditLoadBufferSet(const LoadBuffer &lb, std::size_t set)
{
    const unsigned assoc = lb.config().assoc;
    const std::size_t base = set * assoc;
    for (std::size_t i = base; i < base + assoc; ++i) {
        // Probe-lane coherence: a valid way's control byte must be
        // the fingerprint of its full tag, or lookup() could miss a
        // resident entry.
        if (!lb.lanesCoherentAt(i)) {
            return corrupt("control byte disagrees with tag lane",
                           "LB", i);
        }

        const LBEntryImage entry = lb.imageAt(i);
        if (!entry.valid)
            continue;

        // Tag uniqueness within the set: a duplicated tag would make
        // lookup() results depend on way order.
        for (std::size_t j = base; j < i; ++j) {
            const LBEntryImage other = lb.imageAt(j);
            if (other.valid && other.tag == entry.tag) {
                return corrupt("duplicate LB tag 0x" +
                                   std::to_string(entry.tag) +
                                   " in set " + std::to_string(set),
                               "LB", i);
            }
        }

        // History registers must fit their configured width.
        if ((entry.hist.value() & ~mask(entry.hist.numBits())) != 0)
            return corrupt("history value exceeds width", "LB", i);
        if ((entry.specHist.value() &
             ~mask(entry.specHist.numBits())) != 0) {
            return corrupt("speculative history value exceeds width",
                           "LB", i);
        }

        // Confidence and selector counters within saturation range.
        if (!counterOk(entry.capConf))
            return corrupt("CAP confidence counter overflow", "LB", i);
        if (!counterOk(entry.strideConf)) {
            return corrupt("stride confidence counter overflow", "LB",
                           i);
        }
        if (!counterOk(entry.selector))
            return corrupt("selector counter overflow", "LB", i);
    }
    return ok();
}

/** The LT invariants of set @p set, in ascending slot order. */
Expected<void>
auditLinkTableSet(const LinkTable &lt, std::size_t set)
{
    const CapConfig &config = lt.config();
    const unsigned assoc = lt.assoc();
    const std::size_t base = set * assoc;
    for (std::size_t i = base; i < base + assoc; ++i) {
        // Packed probe word must agree with the full-tag lane.
        if (!lt.lanesCoherentAt(i)) {
            return corrupt("probe word disagrees with tag lane", "LT",
                           i);
        }

        const LTEntry entry = lt.imageAt(i);

        // PF bits live in bits [0, pfBits); anything above means a
        // raw write landed outside the mechanism's field.
        if ((entry.pf & ~mask(config.pfBits)) != 0)
            return corrupt("PF bits exceed configured width", "LT", i);

        if (!entry.valid)
            continue;

        // Tags are history MSBs truncated to ltTagBits.
        if ((entry.tag & ~mask(config.ltTagBits)) != 0)
            return corrupt("tag exceeds ltTagBits", "LT", i);

        // Tag uniqueness within a set (associative organizations;
        // direct-mapped sets hold one entry, nothing to collide).
        if (config.ltTagBits > 0) {
            for (std::size_t j = base; j < i; ++j) {
                const LTEntry other = lt.imageAt(j);
                if (other.valid && other.tag == entry.tag) {
                    return corrupt("duplicate LT tag 0x" +
                                       std::to_string(entry.tag) +
                                       " in set " +
                                       std::to_string(set),
                                   "LT", i);
                }
            }
        }
    }
    return ok();
}

/** Every set of @p table, in ascending order: the first violation. */
template <typename Table, typename CheckSet>
Expected<void>
auditAllSets(const Table &table, CheckSet check)
{
    for (std::size_t set = 0; set < table.numSets(); ++set) {
        if (auto v = check(table, set); !v)
            return v;
    }
    return ok();
}

/** The dirty sets of @p table, in ascending order, clearing each set
 *  that passes; a failing set stops the walk and stays dirty. */
template <typename Table, typename CheckSet>
Expected<void>
auditDirtySets(Table &table, CheckSet check)
{
    DirtySets &dirty = table.dirtySets();
    for (std::size_t set = dirty.next(0); set < dirty.size();
         set = dirty.next(set + 1)) {
        if (auto v = check(table, set); !v)
            return v;
        dirty.clear(set);
    }
    return ok();
}

} // namespace

Expected<void>
auditLoadBuffer(const LoadBuffer &lb)
{
    return auditAllSets(lb, auditLoadBufferSet);
}

Expected<void>
auditLinkTable(const LinkTable &lt)
{
    return auditAllSets(lt, auditLinkTableSet);
}

Expected<void>
auditDirtyLoadBuffer(LoadBuffer &lb)
{
    return auditDirtySets(lb, auditLoadBufferSet);
}

Expected<void>
auditDirtyLinkTable(LinkTable &lt)
{
    return auditDirtySets(lt, auditLinkTableSet);
}

Expected<void>
auditTables(const LoadBuffer &lb, const LinkTable *lt,
            const char *predictor)
{
    if (auto v = auditLoadBuffer(lb); !v)
        return std::move(v.error()).withContext(predictor);
    if (lt != nullptr) {
        if (auto v = auditLinkTable(*lt); !v)
            return std::move(v.error()).withContext(predictor);
    }
    return ok();
}

Expected<void>
auditDirtyTables(LoadBuffer &lb, LinkTable *lt, const char *predictor)
{
    if (auto v = auditDirtyLoadBuffer(lb); !v)
        return std::move(v.error()).withContext(predictor);
    if (lt != nullptr) {
        if (auto v = auditDirtyLinkTable(*lt); !v)
            return std::move(v.error()).withContext(predictor);
    }
    return ok();
}

} // namespace clap
