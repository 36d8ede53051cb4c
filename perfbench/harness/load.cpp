// The server child process and the closed-loop load clients.
//
// Clients speak the wire protocol over plain POSIX sockets and parse
// only the result fields they check, so the client's own cost does not
// move when the server's protocol code changes.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -- server process ------------------------------------------------------

Server::Server(const std::string& cli, const Workload& workload,
               const std::string& trace_path) {
  std::vector<std::string> args = {cli, "serve", "--listen", "127.0.0.1:0",
                                   "--cache", std::to_string(workload.cache)};
  if (!trace_path.empty()) {
    args.push_back("--trace");
    args.push_back(trace_path);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  pid_t pid = -1;
  const int spawned =
      ::posix_spawn(&pid, cli.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (spawned != 0) {
    ::close(pipe_fds[0]);
    throw std::runtime_error("cannot start " + cli + ": " + std::strerror(spawned));
  }
  pid_ = pid;
  stderr_fd_ = pipe_fds[0];

  // Readiness: "listening on 127.0.0.1:<port> (<n> threads)".
  const double deadline = now_seconds() + 30.0;
  const std::string marker = "listening on 127.0.0.1:";
  while (port_ == 0) {
    const double left = deadline - now_seconds();
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      stop();
      throw std::runtime_error("server not ready within 30 s: " + log_);
    }
    char buffer[4096];
    const ssize_t got = ::read(stderr_fd_, buffer, sizeof(buffer));
    if (got <= 0) {
      stop();
      throw std::runtime_error("server exited before listening: " + log_);
    }
    log_.append(buffer, static_cast<std::size_t>(got));
    const std::size_t at = log_.find(marker);
    if (at != std::string::npos && log_.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::stoi(log_.substr(at + marker.size())));
    }
  }
}

Server::~Server() { stop(); }

double Server::cpu_seconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), {});
  // Fields after the parenthesised command: state is field 3, utime and
  // stime are fields 14 and 15.
  std::istringstream fields(text.substr(text.rfind(')') + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Server::rss_peak_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void Server::stop() {
  if (pid_ > 0) {
    int status = 0;
    ::kill(pid_, SIGTERM);
    const double deadline = now_seconds() + 20.0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_seconds() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      // Keep the stderr pipe drained so the exit summary cannot block.
      char buffer[4096];
      pollfd pfd{stderr_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 10) > 0 && ::read(stderr_fd_, buffer, sizeof(buffer)) <= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
}

// -- client connections --------------------------------------------------

namespace {

/// One loopback connection with a line reader over its receive side.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t wrote =
          ::send(fd_, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) throw std::runtime_error("send failed");
      done += static_cast<std::size_t>(wrote);
    }
  }

  /// "No more requests": the server answers what is queued, then closes.
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  /// Next non-blank line; false at end of stream.
  bool read_line(std::string& line) {
    while (true) {
      const std::size_t eol = buffer_.find('\n', start_);
      if (eol != std::string::npos) {
        line.assign(buffer_, start_, eol - start_);
        start_ = eol + 1;
        if (line.empty()) continue;  // liveness probe
        return true;
      }
      buffer_.erase(0, start_);
      start_ = 0;
      char chunk[16384];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Reads one whole frame (header through `end`) into `lines`; false at
  /// end of stream.
  bool read_frame(std::vector<std::string>& lines) {
    lines.clear();
    std::string line;
    while (read_line(line)) {
      lines.push_back(line);
      if (line == "end") return true;
    }
    return false;
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t start_ = 0;
};

/// The checked fields of one result frame.
struct Answer {
  bool ok = false;
  double seconds = 0.0;
  std::vector<std::uint32_t> support;
};

Answer parse_answer(const std::vector<std::string>& lines) {
  Answer answer;
  for (const std::string& line : lines) {
    if (line == "status ok") {
      answer.ok = true;
    } else if (line.rfind("seconds ", 0) == 0) {
      answer.seconds = std::stod(line.substr(8));
    } else if (line.rfind("support", 0) == 0) {
      std::istringstream values(line.substr(7));
      std::uint32_t value = 0;
      while (values >> value) answer.support.push_back(value);
    }
  }
  return answer;
}

JobRecord record(std::size_t instance, double rtt, const Answer& answer,
                 const Inputs& inputs) {
  JobRecord job;
  job.instance = instance;
  job.rtt_seconds = rtt;
  job.frame_seconds = answer.seconds;
  job.ok = answer.ok && answer.support == inputs.reference[instance];
  job.exact = answer.support == inputs.truth[instance];
  return job;
}

/// Runs `body(c)` on one thread per connection and rethrows the first
/// failure after every thread has joined.
template <typename Body>
void on_each(std::size_t count, Body body) {
  std::vector<std::exception_ptr> failures(count);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        failures[c] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

using Connections = std::vector<std::unique_ptr<Connection>>;

/// Opens the connections and answers every warm-up job; returns the sum
/// of the warm-up frames' `seconds`.
double warm_up(Connections& connections, const Server& server,
               const Workload& workload, const Inputs& inputs,
               const Schedule& schedule, unsigned round) {
  for (unsigned c = 0; c < workload.connections; ++c) {
    connections.push_back(std::make_unique<Connection>(server.port()));
  }
  std::vector<double> frame_seconds(connections.size(), 0.0);
  on_each(connections.size(), [&](std::size_t c) {
    std::vector<std::string> lines;
    for (std::size_t instance : schedule.warmup(static_cast<unsigned>(c), round)) {
      connections[c]->send(inputs.frames[instance]);
      if (!connections[c]->read_frame(lines)) {
        throw std::runtime_error("server closed during warm-up");
      }
      const Answer answer = parse_answer(lines);
      if (!answer.ok) throw std::runtime_error("warm-up job failed");
      frame_seconds[c] += answer.seconds;
    }
  });
  double total = 0.0;
  for (double seconds : frame_seconds) total += seconds;
  return total;
}

/// Closed loop, one job in flight: write, read, repeat until `deadline`.
void drive_serial(Connection& connection, const Inputs& inputs,
                  const Schedule& schedule, std::atomic<std::uint64_t>& next,
                  double deadline, std::vector<JobRecord>& out, std::size_t& sent) {
  std::vector<std::string> lines;
  while (now_seconds() < deadline) {
    const std::size_t instance = schedule.instance(next.fetch_add(1));
    const double start = now_seconds();
    connection.send(inputs.frames[instance]);
    ++sent;
    if (!connection.read_frame(lines)) return;  // missing answers count as failed
    const double rtt = now_seconds() - start;
    out.push_back(record(instance, rtt, parse_answer(lines), inputs));
  }
}

/// Closed loop with `window` jobs in flight: a writer thread keeps the
/// window full until `deadline`, this thread reads answers in order.
void drive_pipelined(Connection& connection, unsigned window, const Inputs& inputs,
                     const Schedule& schedule, std::atomic<std::uint64_t>& next,
                     double deadline, std::vector<JobRecord>& out, std::size_t& sent) {
  struct InFlight {
    std::size_t instance;
    double start;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;  // guarded by mutex
  bool reader_done = false;        // guarded by mutex
  std::exception_ptr writer_failure;
  std::thread writer([&] {
    try {
      while (true) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return in_flight.size() < window || reader_done; });
        if (reader_done || now_seconds() >= deadline) break;
        const std::size_t instance = schedule.instance(next.fetch_add(1));
        in_flight.push_back({instance, now_seconds()});
        ++sent;
        lock.unlock();
        connection.send(inputs.frames[instance]);
      }
    } catch (...) {
      writer_failure = std::current_exception();
    }
    connection.finish_sending();
  });
  std::vector<std::string> lines;
  while (connection.read_frame(lines)) {
    const double end = now_seconds();
    InFlight job{};
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (in_flight.empty()) break;  // an unsolicited frame: stop reading
      job = in_flight.front();
      in_flight.pop_front();
    }
    cv.notify_all();
    out.push_back(record(job.instance, end - job.start, parse_answer(lines), inputs));
  }
  {
    // The stream ended (or broke): release a writer still waiting for
    // window space; unanswered jobs count as failed.
    const std::lock_guard<std::mutex> lock(mutex);
    reader_done = true;
  }
  cv.notify_all();
  writer.join();
  if (writer_failure) std::rethrow_exception(writer_failure);
}

}  // namespace

void run_warmup(Server& server, const Workload& workload, const Inputs& inputs,
                const Schedule& schedule, unsigned round) {
  Connections connections;
  warm_up(connections, server, workload, inputs, schedule, round);
}

LoadResult run_load(Server& server, const Workload& workload, const Inputs& inputs,
                    const Schedule& schedule, unsigned round, double seconds) {
  Connections connections;
  LoadResult result;
  result.warmup_frame_seconds =
      warm_up(connections, server, workload, inputs, schedule, round);
  result.warmup_end = now_seconds();

  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<JobRecord>> per_connection(connections.size());
  std::vector<std::size_t> sent(connections.size(), 0);
  const double cpu_start = server.cpu_seconds();
  const double start = now_seconds();
  const double deadline = start + seconds;
  on_each(connections.size(), [&](std::size_t c) {
    Connection& connection = *connections[c];
    if (workload.outstanding > 1) {
      drive_pipelined(connection, workload.outstanding, inputs, schedule, next,
                      deadline, per_connection[c], sent[c]);
    } else {
      drive_serial(connection, inputs, schedule, next, deadline, per_connection[c],
                   sent[c]);
      connection.finish_sending();
    }
  });
  result.wall_seconds = now_seconds() - start;
  result.cpu_seconds = server.cpu_seconds() - cpu_start;
  result.rss_peak_mb = server.rss_peak_mb();
  for (std::size_t c = 0; c < connections.size(); ++c) {
    result.sent += sent[c];
    for (JobRecord& job : per_connection[c]) result.jobs.push_back(std::move(job));
  }
  // Let every connection see the server's close before the caller stops
  // the server, so the drain finds no live connection.
  std::string line;
  for (auto& connection : connections) {
    while (connection->read_line(line)) {
    }
  }
  return result;
}

std::string fetch_stats_frame(const Server& server) {
  Connection connection(server.port());
  connection.send("pooled-stats v2\nend\n");
  std::vector<std::string> lines;
  if (!connection.read_frame(lines)) throw std::runtime_error("no stats frame");
  connection.finish_sending();
  std::string line;
  while (connection.read_line(line)) {
  }
  std::string text;
  for (const std::string& frame_line : lines) text += frame_line + "\n";
  return text;
}

}  // namespace perfbench
