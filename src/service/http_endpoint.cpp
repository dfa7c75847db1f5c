#include "service/http_endpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/numeric.hpp"

namespace caem::service {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;

void set_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Write the whole buffer; false on any error (the peer hung up — there
/// is nothing useful to do but close).
bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string render_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    http_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return text;
}

std::string trim_ws(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

/// Read one full request off the socket.  False = malformed/oversized/
/// timed out; the caller answers 400 when possible and closes.
bool read_request(int fd, HttpRequest& request) {
  std::string buffer;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    if (buffer.size() > kMaxHeaderBytes) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
    header_end = buffer.find("\r\n\r\n");
  }

  const std::string head = buffer.substr(0, header_end);
  std::string rest = buffer.substr(header_end + 4);

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line = head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  request.method = request_line.substr(0, sp1);
  request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (request.method.empty() || request.target.empty() || request.target[0] != '/') return false;

  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;  // tolerate junk header lines
    request.headers[lower(trim_ws(line.substr(0, colon)))] = trim_ws(line.substr(colon + 1));
  }

  std::size_t content_length = 0;
  const auto it = request.headers.find("content-length");
  if (it != request.headers.end()) {
    const std::optional<unsigned long long> parsed = util::parse_uint(it->second);
    if (!parsed || *parsed > kMaxBodyBytes) return false;
    content_length = static_cast<std::size_t>(*parsed);
  }
  while (rest.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    rest.append(chunk, static_cast<std::size_t>(n));
  }
  request.body = rest.substr(0, content_length);
  return true;
}

}  // namespace

const char* http_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    default: return "Status";
  }
}

HttpEndpoint::HttpEndpoint(std::uint16_t port, Handler handler)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("http: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback ONLY, by design
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("http: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("http: getsockname failed");
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

HttpEndpoint::~HttpEndpoint() { stop(); }

void HttpEndpoint::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // shutdown() wakes the blocking accept(); close() alone is not
  // guaranteed to on all kernels.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  std::list<Connection> connections;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connections = std::move(connections_);  // list nodes (and the flags) stay put
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
}

std::size_t HttpEndpoint::held_connections() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return connections_.size();
}

void HttpEndpoint::reap_finished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->finished) {
      ++it;
      continue;
    }
    // Flagged under mutex_ as its last act: the thread is exiting, so
    // this join is immediate.
    it->thread.join();
    it = connections_.erase(it);
  }
}

void HttpEndpoint::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      continue;  // transient accept failure (EINTR, aborted connection)
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      ::close(fd);
      return;
    }
    // A long-running daemon serves requests without end: join the
    // connections that are done rather than hold every thread (and its
    // stack mapping) until stop().
    reap_finished();
    Connection& connection = connections_.emplace_back();
    connection.thread = std::thread([this, fd, &connection] {
      serve_connection(fd);
      const std::lock_guard<std::mutex> done(mutex_);
      connection.finished = true;
    });
  }
}

void HttpEndpoint::serve_connection(int fd) const {
  set_timeout(fd, 10.0);
  HttpRequest request;
  HttpResponse response;
  if (read_request(fd, request)) {
    try {
      response = handler_(request);
    } catch (const std::exception& error) {
      response.status = 500;
      response.content_type = "text/plain";
      response.body = std::string("internal error: ") + error.what() + "\n";
    }
  } else {
    response.status = 400;
    response.content_type = "text/plain";
    response.body = "malformed request\n";
  }
  write_all(fd, render_response(response));
  ::close(fd);
}

HttpResponse http_request(std::uint16_t port, const std::string& method,
                          const std::string& target, const std::string& body,
                          double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("http client: cannot create socket");
  set_timeout(fd, timeout_s);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("http client: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1:" + std::to_string(port) + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!write_all(fd, request)) {
    ::close(fd);
    throw std::runtime_error("http client: send failed");
  }

  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      ::close(fd);
      throw std::runtime_error("http client: receive failed/timed out");
    }
    if (n == 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = reply.find("\r\n\r\n");
  if (reply.rfind("HTTP/1.", 0) != 0 || header_end == std::string::npos) {
    throw std::runtime_error("http client: malformed response");
  }
  HttpResponse response;
  const std::size_t sp = reply.find(' ');
  const std::optional<long long> status =
      sp == std::string::npos ? std::nullopt : util::parse_int(reply.substr(sp + 1, 3));
  if (!status) throw std::runtime_error("http client: malformed status line");
  response.status = static_cast<int>(*status);
  const std::string head = lower(reply.substr(0, header_end));
  const std::size_t ct = head.find("content-type:");
  if (ct != std::string::npos) {
    std::size_t eol = head.find("\r\n", ct);
    if (eol == std::string::npos) eol = head.size();
    response.content_type = trim_ws(reply.substr(ct + 13, eol - ct - 13));
  }
  response.body = reply.substr(header_end + 4);
  return response;
}

}  // namespace caem::service
