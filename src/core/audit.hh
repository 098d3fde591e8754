/**
 * @file
 * Structural invariant auditor for the predictor tables. The paper's
 * robustness claim is that all predictor state is speculative — a
 * corrupted entry costs mispredictions, never correctness — but the
 * *simulator* still relies on structural invariants (tag uniqueness
 * within a set, field values within their configured widths, counters
 * within their saturation range) to stay meaningful. The auditor
 * checks exactly those invariants and reports the first violation as
 * an ErrorCode::CorruptedState, which the sweep runner classifies as
 * retryable: a fault-injection job whose tables end a trace in an
 * inconsistent state is re-run (with a re-salted fault sequence)
 * instead of silently polluting the sweep's statistics.
 *
 * Every invariant is local to one table set, so each is written once,
 * in a per-set checker, and the auditor comes in two walks over it:
 *
 *  - the full audit (auditLoadBuffer, auditLinkTable) checks every
 *    set. It is read-only (LRU state is not touched) and O(entries):
 *    the sweep runner runs it between traces, state_io runs it after
 *    a restore, and the serve layer runs it before every capture.
 *  - the dirty-set audit (auditDirtyLoadBuffer, auditDirtyLinkTable)
 *    checks only the sets whose dirty flag is raised
 *    (core/probe_lanes.hh DirtySets), in ascending set order, clears
 *    each set's flag once the set passes and stops at the first
 *    failing set, which stays dirty. Every table API that writes a set marks it, so this finds
 *    the same first violation as the full audit for any corruption
 *    made through the table APIs — fault injection included — at the
 *    cost of the few sets a batch touched. The serve layer runs it
 *    after every batch. A write that bypasses the table APIs marks
 *    nothing; only the full audit sees it.
 */

#ifndef CLAP_CORE_AUDIT_HH
#define CLAP_CORE_AUDIT_HH

#include "util/error.hh"

namespace clap
{

class LoadBuffer;
class LinkTable;

/**
 * Check the LB structural invariants: probe lanes coherent with the
 * tag lane, no duplicate valid tags within a set, history registers
 * within their configured widths, and all confidence/selector
 * counters within their saturation range.
 */
Expected<void> auditLoadBuffer(const LoadBuffer &lb);

/**
 * Check the LT structural invariants: probe word coherent with the
 * tag lane, no duplicate valid tags within a set, tags within
 * ltTagBits, and PF bits within pfBits.
 */
Expected<void> auditLinkTable(const LinkTable &lt);

/** auditLoadBuffer() over the LB's dirty sets only (see above). */
Expected<void> auditDirtyLoadBuffer(LoadBuffer &lb);

/** auditLinkTable() over the LT's dirty sets only (see above). */
Expected<void> auditDirtyLinkTable(LinkTable &lt);

/**
 * Full audit of a predictor's tables: @p lb, then @p lt when it is
 * not null. A violation carries @p predictor as context.
 */
Expected<void> auditTables(const LoadBuffer &lb, const LinkTable *lt,
                           const char *predictor);

/** auditTables() with the dirty-set walks. */
Expected<void> auditDirtyTables(LoadBuffer &lb, LinkTable *lt,
                                const char *predictor);

} // namespace clap

#endif // CLAP_CORE_AUDIT_HH
