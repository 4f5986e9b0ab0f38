#include "artifact/client.hpp"

#include <utility>

#include "support/assert.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>

namespace cgra::artifact {

JsonlClient::~JsonlClient() { close(); }

JsonlClient::JsonlClient(JsonlClient&& other) noexcept
    : fd_(other.fd_), rbuf_(std::move(other.rbuf_)) {
  other.fd_ = -1;
}

JsonlClient& JsonlClient::operator=(JsonlClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    rbuf_ = std::move(other.rbuf_);
    other.fd_ = -1;
  }
  return *this;
}

JsonlClient JsonlClient::connectUnix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw Error("socket path too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error("cannot create unix socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw Error("cannot connect to " + path);
  }
  return JsonlClient(fd);
}

JsonlClient JsonlClient::connectTcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("cannot create TCP socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw Error("cannot connect to 127.0.0.1:" + std::to_string(port));
  }
  return JsonlClient(fd);
}

void JsonlClient::sendLine(const std::string& line) {
  CGRA_ASSERT_MSG(fd_ >= 0, "sendLine on a closed client");
  std::string framed = line;
  if (framed.empty() || framed.back() != '\n') framed.push_back('\n');
  const char* p = framed.data();
  std::size_t left = framed.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("connection broke while sending");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

bool JsonlClient::recvLine(std::string& line) {
  CGRA_ASSERT_MSG(fd_ >= 0, "recvLine on a closed client");
  for (;;) {
    const std::size_t nl = rbuf_.find('\n');
    if (nl != std::string::npos) {
      line = rbuf_.substr(0, nl);
      rbuf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    char buf[8192];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF (or a broken connection): session is over
  }
}

void JsonlClient::shutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void JsonlClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace cgra::artifact
