#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "measure.h"

extern char** environ;

namespace perfbench {

using springdtw::util::IoError;
using springdtw::util::Status;
using springdtw::util::StatusOr;

Daemon::~Daemon() {
  if (running()) (void)Stop(/*graceful=*/false);
}

Status Daemon::Start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path, double timeout_s) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return IoError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (rc != 0) {
    close(pipe_fds[0]);
    return IoError("cannot spawn " + binary + ": " + std::strerror(rc));
  }
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  // Read stdout until the port line arrives (the daemon prints it once the
  // server is listening, then nothing else).
  std::string text;
  const int64_t deadline = NowNanos() + static_cast<int64_t>(timeout_s * 1e9);
  while (true) {
    const size_t line = text.find("SERVE_PORT=");
    if (line != std::string::npos && text.find('\n', line) != std::string::npos) {
      port_ = std::atoi(text.c_str() + line + 11);
      return Status::Ok();
    }
    const int64_t left_ms = (deadline - NowNanos()) / 1000000;
    if (left_ms <= 0) break;
    pollfd entry{stdout_fd_, POLLIN, 0};
    if (poll(&entry, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buffer[512];
    const ssize_t n = read(stdout_fd_, buffer, sizeof(buffer));
    if (n <= 0) break;
    text.append(buffer, static_cast<size_t>(n));
  }
  (void)Stop(/*graceful=*/false);
  return IoError("daemon did not report SERVE_PORT (see " + log_path + ")");
}

Status Daemon::Stop(bool graceful, double timeout_s) {
  if (!running()) return Status::Ok();
  kill(pid_, graceful ? SIGTERM : SIGKILL);
  int status = 0;
  const int64_t deadline = NowNanos() + static_cast<int64_t>(timeout_s * 1e9);
  bool reaped = false;
  while (NowNanos() < deadline) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      reaped = true;
      break;
    }
    usleep(2000);
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    (void)waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  if (!graceful) return Status::Ok();
  if (!reaped) return IoError("daemon ignored SIGTERM; killed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return IoError("daemon exited abnormally on SIGTERM");
  }
  return Status::Ok();
}

StatusOr<double> Daemon::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return IoError("unreadable /proc stat");
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(text.substr(close_paren + 1));
  std::string field;
  double utime = 0, stime = 0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

StatusOr<double> Daemon::PeakRssMib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return IoError("no VmHWM in /proc status");
}

Status FreshDirectory(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
  std::filesystem::create_directories(path, error);
  if (error) return IoError("cannot create " + path + ": " + error.message());
  return Status::Ok();
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

void FlushFilesystem(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)syncfs(fd);
  close(fd);
}

}  // namespace perfbench
