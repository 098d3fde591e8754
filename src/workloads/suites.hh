/**
 * @file
 * The benchmark catalog: 45 synthetic traces grouped into the paper's
 * 8 suites (section 4.1). Suite composition mirrors the qualitative
 * description in the paper:
 *
 *   INT  (8) SPECint95 — RDS traversals, trees, call-site correlation
 *   CAD  (2) CAD tools — large trees/lists, many static loads
 *   MM   (8) MMX media — long array sweeps, matrices (stride-friendly)
 *   GAM  (4) games — arrays + pointer structures + some randomness
 *   JAV  (5) Java — stack-model traffic, short procedures, repeated
 *            short strided bursts (the section-4.3 inner loop)
 *   TPC  (3) transaction processing — hash probes, long lists,
 *            randomness, heavy static-load counts (LB contention)
 *   NT   (8) NT desktop apps — broad moderate mix
 *   W95  (7) Win95 apps — broad mix with more irregularity
 *
 * Trace generation is deterministic in (name, seed); suite membership
 * is encoded in TraceSpec::suite.
 */

#ifndef CLAP_WORKLOADS_SUITES_HH
#define CLAP_WORKLOADS_SUITES_HH

#include <cstddef>
#include <string>
#include <vector>

#include "workloads/composer.hh"

namespace clap
{

/** Suite names in the paper's (alphabetical) reporting order. */
const std::vector<std::string> &suiteNames();

/** Build the full 45-trace catalog. */
std::vector<TraceSpec> buildCatalog();

/** Specs belonging to one suite, in catalog order. */
std::vector<TraceSpec> buildSuite(const std::string &suite);

/**
 * Default per-trace instruction budget for experiments. Reads the
 * CLAP_TRACE_INSTS environment variable when set (so CI or quick runs
 * can scale the experiment size), otherwise returns 200000. A value
 * that is not wholly a number of at least 1 ("2e4", "abc", "0") exits
 * 2, naming the variable (envUnsigned, util/parse_number.hh).
 */
std::size_t defaultTraceLength();

} // namespace clap

#endif // CLAP_WORKLOADS_SUITES_HH
