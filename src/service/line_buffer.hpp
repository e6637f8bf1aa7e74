// Nano-Sim — NDJSON line framing for the service sockets.
//
// Both ends of the protocol (Server's connection readers and Client)
// cut a TCP byte stream into lines.  LineBuffer reads up to 64 KB per
// recv and scans each byte for '\n' exactly once, so a result line of a
// megabyte that arrives over many reads costs linear time, not a rescan
// of everything buffered after every read.  Consumed lines are dropped
// in one move per refill, not one per line.
#ifndef NANOSIM_SERVICE_LINE_BUFFER_HPP
#define NANOSIM_SERVICE_LINE_BUFFER_HPP

#include <sys/types.h>

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace nanosim::service {

class LineBuffer {
public:
    /// Bytes requested from the socket per recv_from().
    static constexpr std::size_t k_read_size = 64 * 1024;

    /// The next whole buffered line without its '\n' (and without a
    /// trailing '\r'); empty lines are skipped.  nullopt when no whole
    /// line is buffered.  The view is valid until the next call on this
    /// buffer.
    [[nodiscard]] std::optional<std::string_view> next_line();

    /// One recv() of up to k_read_size bytes from `fd`, appended to the
    /// buffer.  Returns what recv() returned: 0 on EOF, -1 with errno
    /// set on error.
    ssize_t recv_from(int fd);

private:
    std::string data_;
    std::size_t head_ = 0;    ///< first byte not yet returned as a line
    std::size_t scanned_ = 0; ///< [head_, scanned_) holds no '\n'
};

} // namespace nanosim::service

#endif // NANOSIM_SERVICE_LINE_BUFFER_HPP
