#include "http_client.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <strings.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace perfbench {

HttpClient::HttpClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("HttpClient: socket failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A stalled server fails the request instead of hanging the run.
  const timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("HttpClient: connect failed: " + std::string(std::strerror(errno)));
  }
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

HttpClient::Response HttpClient::request(const std::string& method, const std::string& path,
                                         const std::string& body) {
  std::string out = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\n";
  }
  out += "\r\n" + body;
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("HttpClient: send failed");
    }
    sent += static_cast<std::size_t>(w);
  }

  const auto fill = [&] {
    char chunk[16384];
    for (;;) {
      const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw std::runtime_error("HttpClient: connection closed mid-response");
      buffer_.append(chunk, static_cast<std::size_t>(r));
      return;
    }
  };
  std::size_t headerEnd;
  while ((headerEnd = buffer_.find("\r\n\r\n")) == std::string::npos) fill();

  Response response;
  if (buffer_.compare(0, 9, "HTTP/1.1 ") != 0) {
    throw std::runtime_error("HttpClient: malformed status line");
  }
  response.status = std::atoi(buffer_.c_str() + 9);
  std::size_t contentLength = 0;
  bool haveLength = false;
  std::size_t lineStart = buffer_.find("\r\n") + 2;
  while (lineStart < headerEnd) {
    const std::size_t lineEnd = buffer_.find("\r\n", lineStart);
    const std::string line = buffer_.substr(lineStart, lineEnd - lineStart);
    if (line.size() > 15 && ::strncasecmp(line.c_str(), "content-length:", 15) == 0) {
      contentLength = std::strtoull(line.c_str() + 15, nullptr, 10);
      haveLength = true;
    }
    lineStart = lineEnd + 2;
  }
  if (!haveLength) throw std::runtime_error("HttpClient: response without Content-Length");
  const std::size_t bodyStart = headerEnd + 4;
  while (buffer_.size() < bodyStart + contentLength) fill();
  response.body = buffer_.substr(bodyStart, contentLength);
  buffer_.erase(0, bodyStart + contentLength);
  return response;
}

namespace {
std::size_t valueStart(const std::string& body, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t at = body.find(quoted);
  if (at == std::string::npos) throw std::runtime_error("JSON field '" + key + "' missing");
  at += quoted.size();
  while (at < body.size() && (body[at] == ' ' || body[at] == ':')) ++at;
  return at;
}
}  // namespace

double jsonNumberField(const std::string& body, const std::string& key) {
  const std::size_t at = valueStart(body, key);
  const char* begin = body.c_str() + at;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) throw std::runtime_error("JSON field '" + key + "' is not a number");
  return value;
}

std::string jsonStringField(const std::string& body, const std::string& key) {
  const std::size_t at = valueStart(body, key);
  if (at >= body.size() || body[at] != '"') {
    throw std::runtime_error("JSON field '" + key + "' is not a string");
  }
  const std::size_t close = body.find('"', at + 1);
  if (close == std::string::npos) throw std::runtime_error("JSON string unterminated");
  return body.substr(at + 1, close - at - 1);
}

}  // namespace perfbench
