// http_endpoint.hpp — minimal HTTP/1.1 endpoint for the sweep service.
//
// `caem serve` needs exactly four things from HTTP: accept a scenario
// body, answer small JSON status documents to many concurrent pollers,
// stream artifact files, and shut down cleanly.  A dependency-free
// hand-rolled loop covers that in a few hundred lines: one listener
// thread accepts, one short-lived thread per connection parses a single
// request, calls the injected handler, writes the response and closes
// (`Connection: close` — no keep-alive state machine to get wrong).
// The handler is a pure HttpRequest -> HttpResponse function, so every
// route is unit-testable without a socket in sight.
//
// Scope limits, deliberate: loopback bind only (the service is a local
// coordination daemon, not an internet face), no TLS, no chunked
// encoding, 64 KiB header / 8 MiB body caps, and a receive timeout so
// a stalled client can never wedge its connection thread.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace caem::service {

/// One parsed request.  Header names are lowercased (HTTP headers are
/// case-insensitive); the target keeps its raw path (no query parsing —
/// the service's routes don't use queries).
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string target;  ///< "/sweeps/s1/artifacts/out.csv"
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Reason phrase for the handful of status codes the service emits.
[[nodiscard]] const char* http_reason(int status);

class HttpEndpoint {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Bind 127.0.0.1:`port` (0 = ephemeral; port() reports the choice)
  /// and start accepting.  Throws std::runtime_error when the bind
  /// fails — a service that silently isn't listening helps no one.
  HttpEndpoint(std::uint16_t port, Handler handler);

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// stop() is idempotent; the destructor stops too.
  ~HttpEndpoint();
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Connection threads not yet joined.  The accept loop joins the
  /// finished ones before starting each new one, so this stays near the
  /// number of requests in flight however many have been served.
  [[nodiscard]] std::size_t held_connections();

 private:
  struct Connection {
    std::thread thread;
    bool finished = false;  ///< guarded by mutex_
  };

  void accept_loop();
  void serve_connection(int fd) const;
  /// Join and drop finished connections.  Caller holds mutex_.
  void reap_finished();

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex mutex_;
  std::list<Connection> connections_;  ///< stable addresses: each thread flags its own entry
  bool stopped_ = false;
};

/// Blocking one-shot client for `caem submit`/`status`/`fetch` and the
/// tests: send one request to 127.0.0.1:`port`, return the parsed
/// response.  Throws std::runtime_error on connect/IO failure.
[[nodiscard]] HttpResponse http_request(std::uint16_t port, const std::string& method,
                                        const std::string& target, const std::string& body = "",
                                        double timeout_s = 30.0);

}  // namespace caem::service
