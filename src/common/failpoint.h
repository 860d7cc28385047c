// Failpoints: named fault-injection sites wired into every fallible seam
// of the pipeline, in the spirit of LevelDB/RocksDB's FaultInjectionTestEnv
// (but inline in the code paths rather than behind an Env interface).
//
// A failpoint is a compile-time-known site name checked at runtime:
//
//   MRCC_RETURN_IF_ERROR(fp::Maybe("tree.build.alloc"));   // Status seam
//   if (fp::MaybeTrue("source.read.truncate")) { ... }     // boolean seam
//
// Disarmed (the production state) a check is one relaxed atomic load and a
// predictable branch — cheap enough for per-point hot paths;
// bench_scale_points measured within noise of the pre-failpoint build.
// Armed, the slow path looks the site up in a mutex-guarded registry,
// counts the hit and decides deterministically from (trigger spec, hit
// count) whether to fire. Firing yields the site's registered StatusCode
// ("source.*" sites are IOError, "*.alloc" sites ResourceExhausted, ...),
// so injected faults exercise exactly the error category a real failure
// would.
//
// Arming:
//   - tests: fp::ScopedArm arm("tree.build.alloc");      // RAII disarm
//   - env:   MRCC_FAILPOINTS="site[=trigger][,site...]"  // read at startup
//
// Trigger grammar (all deterministic in the per-site hit count):
//   (empty)   fire on every hit
//   N         fire on the Nth hit only (1-based)
//   N+        fire on every hit from the Nth on
//   pP@S      fire pseudo-randomly with probability P, seeded by S: the
//             decision for hit k is a pure hash of (S, k)
// Hit counts reset on every Arm/DisarmAll, so a test's injections do not
// depend on earlier tests. With worker threads the per-site hit order is
// scheduling-dependent; `N`/`N+`/`pP@S` triggers are exact only on serial
// paths, while the every-hit trigger is exact everywhere.
//
// The site list is closed: Maybe/MaybeTrue on an unregistered name is a
// debug-check failure, and Arm rejects unknown names — which is what lets
// tests/fault_injection_test.cc sweep AllSites() and prove every seam
// turns into a clean Status (never an abort). New seams add their site to
// kSites in failpoint.cc and a scenario to the sweep.

#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/status.h"

namespace mrcc {
namespace fp {

namespace detail {
/// True while at least one site is armed (the fast-path gate).
extern std::atomic<bool> g_any_armed;
[[nodiscard]] Status MaybeSlow(const char* site);
bool MaybeTrueSlow(const char* site);
}  // namespace detail

/// Returns OK unless `site` is armed and its trigger fires, in which case
/// the site's registered error (e.g. IOError for read seams) is returned.
inline Status Maybe(const char* site) {
  if (!detail::g_any_armed.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  return detail::MaybeSlow(site);
}

/// Boolean form for seams that inject behavior (a short read, a corrupt
/// row, a failed thread spawn) instead of returning a Status directly.
inline bool MaybeTrue(const char* site) {
  if (!detail::g_any_armed.load(std::memory_order_relaxed)) return false;
  return detail::MaybeTrueSlow(site);
}

/// Arms the sites named in `spec` ("site[=trigger]", comma/semicolon
/// separated — the MRCC_FAILPOINTS grammar above). Resets every hit
/// count. Unknown site names and malformed triggers are InvalidArgument.
[[nodiscard]] Status Arm(const std::string& spec);

/// Disarms every site and resets hit counts.
void DisarmAll();

/// Hits recorded at `site` since the last Arm/DisarmAll (0 when disarmed:
/// the fast path does not count).
uint64_t HitCount(const char* site);

/// Every registered site name, in registration order. The fault sweep
/// test iterates this list; it is the authoritative failure-model index.
std::vector<std::string> AllSites();

/// The status code `site` fires with (kInternal for boolean-only sites).
StatusCode SiteCode(const char* site);

/// RAII arming for tests: arms `spec` on construction (aborting on a bad
/// spec — a test bug), disarms everything on destruction.
class ScopedArm {
 public:
  explicit ScopedArm(const std::string& spec);
  ~ScopedArm() { DisarmAll(); }
  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;
};

}  // namespace fp
}  // namespace mrcc
