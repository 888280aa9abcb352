// The benchmark's own HTTP endpoints: a minimal blocking HTTP/1.1
// client connection for the load generator (independent of Bifrost's
// http::HttpClient, so a change to the system's HTTP code does not also
// change the load it is measured with) and the trivial backends the
// proxy forwards to.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "http/server.hpp"

namespace perfbench {

/// Request stamps carried in headers on traced runs.
inline constexpr const char* kSentHeader = "X-Bench-Sent";
inline constexpr const char* kRequestIdHeader = "X-Bench-Req";
inline constexpr const char* kStartHeader = "X-Bench-Start";
inline constexpr const char* kExitHeader = "X-Bench-Exit";

/// What the generator reads back from one response.
struct Reply {
  int status = 0;
  std::string version;     ///< X-Bifrost-Version
  std::string new_session; ///< bifrost.sid from Set-Cookie, if any
  std::int64_t handler_start_ns = 0;
  std::int64_t handler_exit_ns = 0;
};

/// One keep-alive connection to 127.0.0.1:port; one request in flight.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : port_(port) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one serialized request and reads its response, connecting
  /// first if needed. On a transport error the connection is closed (the
  /// next call reopens it).
  bool round_trip(const std::string& request, Reply& reply);

 private:
  bool open();
  bool send_all(const std::string& bytes);
  bool read_reply(Reply& reply);
  void close();

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

/// Appends a serialized request to `out` (cleared first). `session`
/// empty = no cookie; `sent_ns` 0 = no trace stamps.
void build_request(std::string& out, bool post, std::uint64_t item,
                   const std::string& session, const std::string& body,
                   std::int64_t sent_ns, std::uint64_t request_id);

/// A trivial backend: answers every request with a short body naming
/// its version. Handlers run inline on the reactor (they never block).
/// With `traced`, a live backend stamps handler start/exit into the
/// response and a dark backend records the shadow's arrival lag.
class Backend {
 public:
  Backend(std::string version, bool dark, bool traced);
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  void start();
  void stop();
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const std::string& version() const { return version_; }
  [[nodiscard]] std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  bifrost::http::Response handle(const bifrost::http::Request& request);

  std::string version_;
  bool dark_;
  bool traced_;
  std::string body_;
  std::atomic<std::uint64_t> received_{0};
  std::unique_ptr<bifrost::http::HttpServer> server_;
};

}  // namespace perfbench
