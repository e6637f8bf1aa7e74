#include "service/line_buffer.hpp"

#include <sys/socket.h>

namespace nanosim::service {

std::optional<std::string_view> LineBuffer::next_line() {
    for (;;) {
        const std::size_t nl = data_.find('\n', scanned_);
        if (nl == std::string::npos) {
            scanned_ = data_.size();
            return std::nullopt;
        }
        std::string_view line(data_.data() + head_, nl - head_);
        head_ = scanned_ = nl + 1;
        if (!line.empty() && line.back() == '\r') {
            line.remove_suffix(1);
        }
        if (!line.empty()) {
            return line;
        }
    }
}

ssize_t LineBuffer::recv_from(int fd) {
    char chunk[k_read_size];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
        data_.erase(0, head_);
        scanned_ -= head_;
        head_ = 0;
        data_.append(chunk, static_cast<std::size_t>(n));
    }
    return n;
}

} // namespace nanosim::service
