#include "coold_client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace coolbench {

namespace {

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send(const std::string& frame) {
  std::string line = frame;
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sys_error("send to coold");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Connection::pump(const std::function<void(std::string&&)>& on_line) {
  char buffer[1 << 16];
  while (!closed_) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n == 0) {
      closed_ = true;
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw sys_error("recv from coold");
    }
    inbox_.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = inbox_.find('\n'); nl != std::string::npos;
         nl = inbox_.find('\n', start)) {
      on_line(inbox_.substr(start, nl - start));
      start = nl + 1;
    }
    inbox_.erase(0, start);
  }
}

std::string Connection::call(const std::string& frame, double timeout_s) {
  send(frame);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::string reply;
  bool have = false;
  std::vector<Connection*> self{this};
  while (!have) {
    if (closed_ || Clock::now() >= deadline)
      throw std::runtime_error("coold did not answer " + frame);
    poll_connections(self, deadline,
                     [&](std::size_t, Clock::time_point, std::string&& line) {
                       if (!have) {
                         reply = std::move(line);
                         have = true;
                       }
                     });
  }
  return reply;
}

CooldProcess::CooldProcess(const std::string& binary, const std::string& dir) {
  namespace fs = std::filesystem;
  const std::string state = dir + "/state";
  socket_path_ = dir + "/coold.sock";
  fs::remove_all(state);
  fs::create_directories(dir);
  fs::remove(socket_path_);
  if (socket_path_.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::runtime_error("socket path too long: " + socket_path_);
  const std::string log = dir + "/coold.log";

  spawned_at_ = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw sys_error("fork");
  if (pid_ == 0) {
    // Child: die with the benchmark, log beside the state dir, exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    const char* argv[] = {binary.c_str(), "--state-dir", state.c_str(),
                          "--socket",     socket_path_.c_str(), nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  // Ready when the socket accepts a connection.
  const Clock::time_point deadline = spawned_at_ + std::chrono::seconds(20);
  while (true) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("coold exited during start-up (see " + log + ")");
    }
    try {
      ::close(connect_fd());
      return;
    } catch (const std::runtime_error&) {
      if (Clock::now() > deadline)
        throw std::runtime_error("coold socket never came up (see " + log + ")");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

CooldProcess::~CooldProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

int CooldProcess::connect_fd() const {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw sys_error("socket");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    throw std::runtime_error("connect " + socket_path_ + ": " +
                             std::strerror(errno));
  }
  return fd;
}

double CooldProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
  throw std::runtime_error("no VmHWM for coold pid " + std::to_string(pid_));
}

void CooldProcess::shutdown(Connection& connection) {
  connection.call("{\"id\":\"shutdown\",\"type\":\"shutdown\"}");
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (true) {
    int status = 0;
    const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
    if (reaped == pid_) {
      pid_ = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("coold did not exit cleanly");
      return;
    }
    if (reaped < 0 && errno != EINTR) throw sys_error("waitpid coold");
    if (Clock::now() > deadline)
      throw std::runtime_error("coold did not exit after shutdown");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void poll_connections(
    std::vector<Connection*>& connections, Clock::time_point deadline,
    const std::function<void(std::size_t, Clock::time_point, std::string&&)>&
        on_line) {
  std::vector<pollfd> fds(connections.size());
  for (std::size_t i = 0; i < connections.size(); ++i)
    fds[i] = {connections[i]->closed() ? -1 : connections[i]->fd(), POLLIN, 0};
  const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
  timespec timeout{static_cast<time_t>(ns / 1000000000),
                   static_cast<long>(ns % 1000000000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw sys_error("ppoll");
  }
  if (ready == 0) return;
  const Clock::time_point received = Clock::now();
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    connections[i]->pump([&](std::string&& line) {
      on_line(i, received, std::move(line));
    });
  }
}

}  // namespace coolbench
