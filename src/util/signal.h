// Cooperative shutdown on SIGINT/SIGTERM for long-running binaries.
//
// InstallShutdownHandlers() registers async-signal-safe handlers that only
// set a flag; loops that write artifacts (event logs, CSV exports,
// service drains) poll ShutdownRequested() between units of work and exit
// through their normal flush/close path instead of dying mid-record with a
// torn tail. A second signal restores the default disposition, so a stuck
// drain can still be killed the usual way.

#ifndef CDT_UTIL_SIGNAL_H_
#define CDT_UTIL_SIGNAL_H_

namespace cdt {
namespace util {

/// Installs SIGINT/SIGTERM handlers that set the shutdown flag. Idempotent
/// and safe to call from any binary's main before the work loop starts.
void InstallShutdownHandlers();

/// True once a shutdown signal arrived (or RequestShutdown was called).
bool ShutdownRequested();

/// Sets the flag programmatically — the service uses this for graceful
/// drains triggered by its owner, and tests use it to exercise the
/// interrupted-run paths without raising real signals.
void RequestShutdown();

/// Clears the flag (test isolation between cases).
void ResetShutdownFlag();

}  // namespace util
}  // namespace cdt

#endif  // CDT_UTIL_SIGNAL_H_
