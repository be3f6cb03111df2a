// Drives the real coold binary: spawn on a fresh state directory, connect
// over its Unix socket, exchange line-delimited JSON frames, shut down and
// reap it (reading its peak RSS from wait4).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace coolbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// One client connection. Reads never block the caller: pump() drains what
// the kernel already holds and hands back each complete line.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const noexcept { return fd_; }
  // Writes frame + '\n' completely; throws on a broken connection.
  void send(const std::string& frame);
  // Drains readable bytes and calls on_line for every complete line; marks
  // the connection closed when the peer hung up.
  void pump(const std::function<void(std::string&&)>& on_line);
  bool closed() const noexcept { return closed_; }
  // Blocking request/response for control frames (stats, shutdown), with
  // no other request outstanding on this connection.
  std::string call(const std::string& frame, double timeout_s = 30.0);

 private:
  int fd_;
  bool closed_ = false;
  std::string inbox_;
};

class CooldProcess {
 public:
  // Spawns `binary` in its default configuration on <dir>/state (removed
  // first) and <dir>/coold.sock, and returns once the socket accepts.
  CooldProcess(const std::string& binary, const std::string& dir);
  // SIGKILLs and reaps the daemon if it is still running.
  ~CooldProcess();
  CooldProcess(const CooldProcess&) = delete;
  CooldProcess& operator=(const CooldProcess&) = delete;

  Clock::time_point spawned_at() const noexcept { return spawned_at_; }
  // A new connection to the daemon.
  int connect_fd() const;
  // The daemon's peak resident set (VmHWM) so far, in MiB. Read from procfs
  // rather than wait4: a forked child's ru_maxrss also counts the pages it
  // shared with this process before exec.
  double peak_rss_mb() const;
  // Sends shutdown over `connection` and waits for the daemon to exit
  // cleanly. Throws when it does not exit in time.
  void shutdown(Connection& connection);

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  Clock::time_point spawned_at_{};
};

// Waits until some open connection is readable or `deadline` passes,
// pumping each readable one. on_line gets (connection index, receive time,
// line).
void poll_connections(
    std::vector<Connection*>& connections, Clock::time_point deadline,
    const std::function<void(std::size_t, Clock::time_point, std::string&&)>&
        on_line);

}  // namespace coolbench
