#pragma once

/// \file http_client.hpp
/// Minimal keep-alive HTTP/1.1 client for the gateway workload, plus
/// flat-object JSON field readers. Written apart from the gateway's own
/// parser and JSON codec, so a reply is read the way an outside client
/// would read it.

#include <cstdint>
#include <string>

namespace perfbench {

class HttpClient {
 public:
  struct Response {
    int status = 0;
    std::string body;
  };

  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One request on the kept-alive connection; throws on transport or
  /// framing failure.
  Response request(const std::string& method, const std::string& path,
                   const std::string& body = "");

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received beyond the previous response
};

/// Value of a top-level number field of a flat JSON object; throws
/// std::runtime_error when absent or not a number.
double jsonNumberField(const std::string& body, const std::string& key);
/// Value of a top-level string field (no escape sequences expected).
std::string jsonStringField(const std::string& body, const std::string& key);

}  // namespace perfbench
