#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

namespace util = springdtw::util;

/// A springdtw_serve child process. The destructor kills and reaps a daemon
/// that is still running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary args...` with stderr appended to `log_path` and waits
  /// (up to `timeout_s`) for its "SERVE_PORT=" line.
  util::Status Start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path, double timeout_s);

  /// SIGTERM (graceful drain + final checkpoint) or SIGKILL, then reaps.
  /// A graceful stop that does not exit 0 within `timeout_s` is killed and
  /// reported as an error.
  util::Status Stop(bool graceful, double timeout_s = 30.0);

  bool running() const { return pid_ > 0; }
  int port() const { return port_; }

  /// User + system CPU seconds the daemon has used (/proc/<pid>/stat).
  util::StatusOr<double> CpuSeconds() const;
  /// Peak resident set (VmHWM of /proc/<pid>/status), in MiB.
  util::StatusOr<double> PeakRssMib() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
};

/// Creates a fresh empty directory (removing any previous one at `path`).
util::Status FreshDirectory(const std::string& path);
/// Removes `path` recursively; missing paths are fine.
void RemoveTree(const std::string& path);

/// Writes back the dirty data of the filesystem holding `path` (syncfs), so
/// an earlier run's write-back does not queue ahead of this run's fsyncs.
void FlushFilesystem(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
