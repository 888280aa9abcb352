#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <string_view>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char x = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
    const char y = b[i] >= 'A' && b[i] <= 'Z' ? b[i] - 'A' + 'a' : b[i];
    if (x != y) return false;
  }
  return true;
}

std::int64_t to_int(std::string_view text) {
  std::int64_t value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

void append_number(std::string& out, std::uint64_t value) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

}  // namespace

Connection::~Connection() { close(); }

void Connection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::open() {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{5, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port_);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    close();
    return false;
  }
  return true;
}

bool Connection::round_trip(const std::string& request, Reply& reply) {
  if (fd_ < 0 && !open()) return false;
  if (send_all(request) && read_reply(reply)) return true;
  close();
  return false;
}

bool Connection::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::read_reply(Reply& reply) {
  reply = Reply{};
  std::size_t head_end = std::string::npos;
  std::size_t scanned = 0;
  char chunk[16384];
  for (;;) {
    head_end = buffer_.find("\r\n\r\n", scanned);
    if (head_end != std::string::npos) break;
    scanned = buffer_.size() >= 3 ? buffer_.size() - 3 : 0;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string_view head(buffer_.data(), head_end);
  // Status line: "HTTP/1.1 200 OK".
  const std::size_t space = head.find(' ');
  if (space == std::string_view::npos) return false;
  reply.status = static_cast<int>(to_int(head.substr(space + 1, 3)));
  std::size_t content_length = 0;
  std::size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos && line_start < head.size()) {
    line_start += 2;
    std::size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string_view::npos) line_end = head.size();
    const std::string_view line = head.substr(line_start, line_end - line_start);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (iequals(name, "Content-Length")) {
        content_length = static_cast<std::size_t>(to_int(value));
      } else if (iequals(name, "X-Bifrost-Version")) {
        reply.version.assign(value);
      } else if (iequals(name, "Set-Cookie")) {
        constexpr std::string_view kPrefix = "bifrost.sid=";
        if (value.substr(0, kPrefix.size()) == kPrefix) {
          value.remove_prefix(kPrefix.size());
          reply.new_session.assign(value.substr(0, value.find(';')));
        }
      } else if (iequals(name, kStartHeader)) {
        reply.handler_start_ns = to_int(value);
      } else if (iequals(name, kExitHeader)) {
        reply.handler_exit_ns = to_int(value);
      }
    }
    line_start = line_end;
  }
  const std::size_t total = head_end + 4 + content_length;
  while (buffer_.size() < total) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  buffer_.erase(0, total);
  return true;
}

void build_request(std::string& out, bool post, std::uint64_t item,
                   const std::string& session, const std::string& body,
                   std::int64_t sent_ns, std::uint64_t request_id) {
  out.clear();
  out += post ? "POST /cart/" : "GET /item/";
  append_number(out, item);
  out += " HTTP/1.1\r\nHost: shop\r\n";
  if (!session.empty()) {
    out += "Cookie: bifrost.sid=";
    out += session;
    out += "\r\n";
  }
  if (sent_ns != 0) {
    out += kSentHeader;
    out += ": ";
    append_number(out, static_cast<std::uint64_t>(sent_ns));
    out += "\r\n";
    out += kRequestIdHeader;
    out += ": ";
    append_number(out, request_id);
    out += "\r\n";
  }
  if (post) {
    out += "Content-Type: application/octet-stream\r\nContent-Length: ";
    append_number(out, body.size());
    out += "\r\n\r\n";
    out += body;
  } else {
    out += "\r\n";
  }
}

Backend::Backend(std::string version, bool dark, bool traced)
    : version_(std::move(version)),
      dark_(dark),
      traced_(traced),
      body_("ok " + version_ + "\n") {
  bifrost::http::HttpServer::Options options;
  options.inline_handlers = true;
  options.worker_threads = 1;
  options.drain_timeout = std::chrono::milliseconds(0);
  server_ = std::make_unique<bifrost::http::HttpServer>(
      options,
      [this](const bifrost::http::Request& request) { return handle(request); });
}

Backend::~Backend() { stop(); }

void Backend::start() { server_->start(); }
void Backend::stop() { server_->stop(); }

bifrost::http::Response Backend::handle(
    const bifrost::http::Request& request) {
  const std::int64_t start_ns = traced_ ? now_ns() : 0;
  trace::exclude_this_thread();
  received_.fetch_add(1, std::memory_order_relaxed);
  if (traced_ && dark_) {
    const auto sent = request.headers.get(kSentHeader);
    const auto id = request.headers.get(kRequestIdHeader);
    if (sent && id) {
      const std::int64_t sent_ns = to_int(*sent);
      trace::record(trace::Name::kShadowArrival, 0,
                    static_cast<std::uint64_t>(to_int(*id)), sent_ns, sent_ns,
                    start_ns);
    }
  }
  bifrost::http::Response response =
      bifrost::http::Response::text(200, body_);
  if (traced_ && !dark_) {
    response.headers.set(kStartHeader, std::to_string(start_ns));
    response.headers.set(kExitHeader, std::to_string(now_ns()));
  }
  return response;
}

}  // namespace perfbench
