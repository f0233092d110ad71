#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "topo/io.h"

namespace arrow::serve {

namespace {

constexpr int kPollTimeoutMs = 100;

}  // namespace

Server::Server(TickEngine& engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)) {}

Server::~Server() {
  for (Client& c : clients_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

bool Server::start() {
  if (!config_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error_ = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      error_ = "unix socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());  // stale socket from a dead daemon
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error_ = "bind " + config_.unix_path + ": " + std::strerror(errno);
      return false;
    }
  } else if (config_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      error_ = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only: no auth
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error_ = "bind port " + std::to_string(config_.tcp_port) + ": " +
               std::strerror(errno);
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  } else {
    error_ = "no listen address (set unix_path or tcp_port)";
    return false;
  }
  if (::listen(listen_fd_, 16) != 0) {
    error_ = "listen: " + std::string(std::strerror(errno));
    return false;
  }
  return true;
}

bool Server::stopping() const {
  if (stop_) return true;
  return config_.stop_check && config_.stop_check();
}

std::string Server::handle_line(const std::string& line, bool* close_conn,
                                bool* stop_server) {
  *close_conn = false;
  *stop_server = false;
  obs::Registry::global().counter("arrow_serve_requests_total").add();

  // HTTP dialect: a GET line gets a complete response and a close — this is
  // what lets Prometheus scrape the same socket the NDJSON clients use.
  std::string target;
  if (is_http_get(line, &target)) {
    *close_conn = true;
    if (target == "/metrics") {
      return http_response(obs::Registry::global().prometheus_text(),
                           "text/plain; version=0.0.4");
    }
    if (target == "/report") {
      return http_response(engine_.report().to_json(), "application/json");
    }
    return "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n"
           "Connection: close\r\n\r\n";
  }

  obs::JsonValue req;
  std::string parse_error;
  if (!parse_request(line, &req, &parse_error)) {
    return error_line(parse_error);
  }
  const std::string op = req.text("op");

  if (op == "hello") {
    obs::JsonValue f;
    f.object["server"] = jstr("arrow-serve");
    f.object["version"] = jnum(1);
    return ok_line(std::move(f));
  }

  if (op == "topology") {
    topo::Network net;
    try {
      if (const obs::JsonValue* path = req.find("path");
          path != nullptr && path->is_string()) {
        net = topo::load_network_file(path->str);
      } else if (const obs::JsonValue* text = req.find("text");
                 text != nullptr && text->is_string()) {
        std::istringstream in(text->str);
        net = topo::load_network(in);
      } else {
        return error_line("topology needs \"path\" or \"text\"");
      }
    } catch (const std::exception& e) {
      return error_line(std::string("topology: ") + e.what());
    }
    const auto res = engine_.set_topology(std::move(net));
    if (!res.ok) return error_line(res.error);
    obs::JsonValue f;
    f.object["sites"] = jnum(res.sites);
    f.object["fibers"] = jnum(res.fibers);
    f.object["scenarios"] = jnum(res.scenarios);
    return ok_line(std::move(f));
  }

  if (op == "tick") {
    traffic::TrafficMatrix tm;
    if (const obs::JsonValue* demands = req.find("demands")) {
      std::string err;
      if (!parse_demands(*demands, &tm, &err)) return error_line(err);
    } else if (const obs::JsonValue* path = req.find("path");
               path != nullptr && path->is_string()) {
      try {
        tm = topo::load_traffic_file(path->str);
      } catch (const std::exception& e) {
        return error_line(std::string("tick: ") + e.what());
      }
    } else {
      return error_line("tick needs \"demands\" or \"path\"");
    }
    const auto res = engine_.tick(tm);
    if (!res.ok) return error_line(res.error);
    obs::JsonValue f;
    f.object["tick"] = jnum(res.tick);
    f.object["rung"] = jstr(ctrl::to_string(res.rung));
    f.object["seconds"] = jnum(res.seconds);
    f.object["deadline_overrun"] = jbool(res.deadline_overrun);
    f.object["rung_regression"] = jbool(res.rung_regression);
    f.object["journal_recovered"] = jbool(res.journal_recovered);
    return ok_line(std::move(f));
  }

  if (op == "cut" || op == "repair") {
    const obs::JsonValue* fiber = req.find("fiber");
    if (fiber == nullptr || !fiber->is_number()) {
      return error_line(op + " needs a numeric \"fiber\"");
    }
    const auto id = static_cast<topo::FiberId>(fiber->number);
    if (op == "repair") {
      if (!engine_.repair(id)) return error_line("fiber not cut");
      return ok_line(obs::JsonValue{});
    }
    const auto res = engine_.cut(id);
    if (!res.ok) return error_line(res.error);
    obs::JsonValue f;
    f.object["planned"] = jbool(res.planned);
    f.object["restored_gbps"] = jnum(res.restored_gbps);
    f.object["latency_s"] = jnum(res.latency_s);
    f.object["local_repair"] = jbool(res.local_repair);
    f.object["fell_back_global"] = jbool(res.fell_back_global);
    return ok_line(std::move(f));
  }

  if (op == "query") {
    obs::JsonValue f;
    f.object["topology"] = jbool(engine_.has_topology());
    f.object["ticks"] = jnum(engine_.ticks());
    f.object["active_cuts"] = jnum(engine_.active_cuts());
    f.object["rung"] = jstr(ctrl::to_string(engine_.last_rung()));
    f.object["tick_p50_s"] = jnum(engine_.tick_p50_s());
    f.object["tick_p99_s"] = jnum(engine_.tick_p99_s());
    f.object["drained"] = jbool(engine_.drained());
    return ok_line(std::move(f));
  }

  if (op == "metrics") {
    obs::JsonValue f;
    f.object["metrics"] = jstr(obs::Registry::global().prometheus_text());
    return ok_line(std::move(f));
  }

  if (op == "report") {
    obs::JsonValue report;
    // RunReport::to_json is this subsystem's own output; re-parsing it into
    // the reply keeps one source of truth for the report schema.
    if (!obs::json_parse(engine_.report().to_json(), &report)) {
      return error_line("internal: report serialization failed");
    }
    obs::JsonValue f;
    f.object["report"] = std::move(report);
    return ok_line(std::move(f));
  }

  if (op == "shutdown") {
    *stop_server = true;
    obs::JsonValue f;
    f.object["draining"] = jbool(true);
    return ok_line(std::move(f));
  }

  return error_line("unknown op \"" + op + "\"");
}

void Server::process_client(Client& c) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = c.in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    bool close_conn = false;
    bool stop_server = false;
    c.out += handle_line(line, &close_conn, &stop_server);
    if (stop_server) stop_ = true;
    if (close_conn) {
      c.close_after_flush = true;
      break;
    }
  }
  c.in.erase(0, start);
}

// Sends the pending output. Local sockets and small replies: a short write
// simply leaves the tail for the next loop iteration. Returns false when
// the connection is dead.
bool Server::flush_client(Client& c) {
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;
      }
      return false;
    }
    c.out.erase(0, static_cast<std::size_t>(n));
  }
  return !c.close_after_flush;
}

void Server::run() {
  while (!stopping()) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const Client& c : clients_) {
      fds.push_back({c.fd, static_cast<short>(POLLIN |
                                              (c.out.empty() ? 0 : POLLOUT)),
                     0});
    }
    const int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks stop flags
      break;
    }
    if (ready == 0) continue;

    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        Client c;
        c.fd = fd;
        clients_.push_back(std::move(c));
      }
    }

    // fds[i + 1] belongs to clients_[i]; clients accepted this iteration
    // sit past the end of fds and are polled next time.
    std::vector<Client> alive;
    alive.reserve(clients_.size());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      Client& c = clients_[i];
      bool ok = true;
      if (i + 1 < fds.size()) {
        const short ev = fds[i + 1].revents;
        if (ev & (POLLERR | POLLNVAL)) ok = false;
        if (ok && (ev & (POLLIN | POLLHUP))) {
          char buf[65536];
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            process_client(c);
          } else if (n == 0 ||
                     (errno != EAGAIN && errno != EWOULDBLOCK &&
                      errno != EINTR)) {
            ok = n == 0 && !c.out.empty();  // flush a final reply, then drop
            if (n == 0) c.close_after_flush = true;
          }
        }
        if (ok) ok = flush_client(c);
      }
      if (ok) {
        alive.push_back(std::move(c));
      } else if (c.fd >= 0) {
        ::close(c.fd);
      }
    }
    clients_ = std::move(alive);
  }

  // Graceful drain: journal end_run, shared basis save, final RunReport.
  engine_.drain();
  for (Client& c : clients_) {
    flush_client(c);
    ::close(c.fd);
    c.fd = -1;
  }
  clients_.clear();
}

}  // namespace arrow::serve
