#include "util/flops.hpp"

#include <sstream>

namespace nanosim {

namespace {

thread_local FlopCounter g_default_counter;
thread_local FlopCounter* g_current = &g_default_counter;

} // namespace

FlopCounter& current_flops() noexcept { return *g_current; }

std::string FlopCounter::summary() const {
    std::ostringstream os;
    os << "flops=" << total() << " (add=" << add << " mul=" << mul
       << " div=" << div << " special=" << special << "; lu_factor="
       << lu_factor << " lu_solve=" << lu_solve << " device=" << device_eval
       << ")";
    return os.str();
}

FlopScope::FlopScope() : previous_(g_current) { g_current = &counter_; }

FlopScope::~FlopScope() {
    if (previous_ != nullptr) {
        *previous_ += counter_;
    }
    g_current = previous_;
}

FlopMute::FlopMute() : previous_(g_current) { g_current = &scratch_; }

FlopMute::~FlopMute() { g_current = previous_; }

} // namespace nanosim
