// Tests for analysis utilities: waveforms, measurements, CSV, tables,
// ASCII plotting.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/ascii_plot.hpp"
#include "analysis/csv.hpp"
#include "analysis/table.hpp"
#include "analysis/waveform.hpp"
#include "util/error.hpp"

namespace nanosim::analysis {
namespace {

Waveform ramp() {
    Waveform w("ramp");
    w.append(0.0, 0.0);
    w.append(1.0, 2.0);
    w.append(2.0, 4.0);
    return w;
}

TEST(Waveform, AppendEnforcesMonotoneTime) {
    Waveform w("x");
    w.append(1.0, 0.0);
    EXPECT_THROW(w.append(1.0, 1.0), AnalysisError);
    EXPECT_THROW(w.append(0.5, 1.0), AnalysisError);
}

TEST(Waveform, ConstructorValidates) {
    EXPECT_THROW(Waveform("x", {0.0, 1.0}, {1.0}), AnalysisError);
    EXPECT_THROW(Waveform("x", {1.0, 1.0}, {1.0, 2.0}), AnalysisError);
}

TEST(Waveform, InterpolatesAndClamps) {
    const Waveform w = ramp();
    EXPECT_DOUBLE_EQ(w.at(0.5), 1.0);
    EXPECT_DOUBLE_EQ(w.at(-1.0), 0.0); // clamp left
    EXPECT_DOUBLE_EQ(w.at(9.0), 4.0);  // clamp right
    EXPECT_THROW((void)Waveform("e").at(0.0), AnalysisError);
}

TEST(Waveform, Resample) {
    const Waveform r = ramp().resampled(5);
    ASSERT_EQ(r.size(), 5u);
    EXPECT_DOUBLE_EQ(r.time_at(2), 1.0);
    EXPECT_DOUBLE_EQ(r.value_at(2), 2.0);
}

TEST(Waveform, ConcurrentSamplingIsExactAndRaceFree) {
    // at() keeps its last-segment cursor in a THREAD-LOCAL cache keyed by
    // waveform identity (the historical shared cursor made concurrent
    // readers ping-pong one hint — a data race in a const method).  Many
    // threads sweeping the same waveform, some forward and some backward,
    // must each get exactly the single-threaded answers.
    Waveform w("shared");
    for (int i = 0; i <= 400; ++i) {
        const double t = 0.01 * i;
        w.append(t, std::sin(t) + 0.25 * t);
    }

    constexpr int kSamples = 2000;
    std::vector<double> query(kSamples);
    std::vector<double> expected(kSamples);
    for (int i = 0; i < kSamples; ++i) {
        query[i] = -0.5 + 5.0 * i / (kSamples - 1); // incl. clamped ends
        expected[i] = w.at(query[i]);               // single-threaded ref
    }

    constexpr int kThreads = 8;
    std::vector<std::vector<double>> got(
        kThreads, std::vector<double>(kSamples, 0.0));
    {
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&w, &got, &query, t] {
                // Even threads sweep forward, odd threads backward —
                // maximally divergent cursor positions on one waveform.
                if (t % 2 == 0) {
                    for (int i = 0; i < kSamples; ++i) {
                        got[t][static_cast<std::size_t>(i)] = w.at(query[i]);
                    }
                } else {
                    for (int i = kSamples - 1; i >= 0; --i) {
                        got[t][static_cast<std::size_t>(i)] = w.at(query[i]);
                    }
                }
            });
        }
        for (auto& th : workers) {
            th.join();
        }
    }
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kSamples; ++i) {
            // Bit-exact: the cursor only chooses HOW the segment is
            // found, never which segment interpolates.
            ASSERT_EQ(got[t][static_cast<std::size_t>(i)], expected[i])
                << "thread " << t << " sample " << i;
        }
    }
}

TEST(Waveform, CursorCacheSurvivesInterleavedWaveforms) {
    // Two waveforms sampled alternately on one thread: the direct-mapped
    // hint slots may collide, which must only cost a re-search — never a
    // wrong value.
    Waveform a("a"), b("b");
    for (int i = 0; i <= 100; ++i) {
        a.append(0.1 * i, 1.0 * i);
        b.append(0.1 * i, -2.0 * i);
    }
    for (int i = 0; i <= 1000; ++i) {
        const double t = 0.01 * i;
        EXPECT_DOUBLE_EQ(a.at(t), 10.0 * t);
        EXPECT_DOUBLE_EQ(b.at(t), -20.0 * t);
    }
}

TEST(Waveform, SharedAxisIsOneVectorAndUnsharesOnAppend) {
    std::vector<Waveform> waves = Waveform::on_shared_axis(
        {0.0, 1.0, 2.0}, {"a", "b"}, {{1.0, 2.0, 3.0}, {-1.0, -2.0, -3.0}});
    ASSERT_EQ(waves.size(), 2u);
    EXPECT_EQ(waves[0].label(), "a");
    EXPECT_EQ(&waves[0].time(), &waves[1].time());
    EXPECT_DOUBLE_EQ(waves[1].at(1.5), -2.5);

    // A copy shares the axis too; appending to it un-shares it first, so
    // the waves it shared with keep their three samples.
    Waveform copy = waves[0];
    EXPECT_EQ(&copy.time(), &waves[0].time());
    copy.append(3.0, 4.0);
    EXPECT_NE(&copy.time(), &waves[0].time());
    EXPECT_EQ(copy.time(), (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
    EXPECT_EQ(waves[0].size(), 3u);
    EXPECT_EQ(waves[1].time(), (std::vector<double>{0.0, 1.0, 2.0}));
    EXPECT_THROW(copy.append(3.0, 5.0), AnalysisError);

    // The axis is checked once, each row against its length.
    EXPECT_THROW((void)Waveform::on_shared_axis({0.0, 0.0}, {"a"},
                                                {{1.0, 2.0}}),
                 AnalysisError);
    EXPECT_THROW((void)Waveform::on_shared_axis({0.0, 1.0}, {"a", "b"},
                                                {{1.0, 2.0}, {1.0}}),
                 AnalysisError);
    EXPECT_THROW((void)Waveform::on_shared_axis({0.0}, {"a"}, {}),
                 AnalysisError);
    const std::vector<Waveform> none =
        Waveform::on_shared_axis({}, {"a"}, {{}});
    ASSERT_EQ(none.size(), 1u);
    EXPECT_TRUE(none[0].empty());
}

TEST(Waveform, Extrema) {
    Waveform w("x");
    w.append(0.0, 1.0);
    w.append(1.0, -3.0);
    w.append(2.0, 2.0);
    EXPECT_DOUBLE_EQ(w.max_value(), 2.0);
    EXPECT_DOUBLE_EQ(w.min_value(), -3.0);
}

TEST(Measure, CrossingTime) {
    Waveform w("x");
    w.append(0.0, 0.0);
    w.append(1.0, 1.0);
    w.append(2.0, 0.0);
    EXPECT_DOUBLE_EQ(measure::crossing_time(w, 0.5, true), 0.5);
    EXPECT_DOUBLE_EQ(measure::crossing_time(w, 0.5, false), 1.5);
    EXPECT_TRUE(std::isnan(measure::crossing_time(w, 2.0, true)));
    // `after` skips crossings before it: no rising crossing remains
    // past 0.6, but the falling one at 1.5 does.
    EXPECT_TRUE(std::isnan(measure::crossing_time(w, 0.5, true, 0.6)));
    EXPECT_DOUBLE_EQ(measure::crossing_time(w, 0.5, false, 0.6), 1.5);
}

TEST(Measure, PeakTime) {
    Waveform w("x");
    w.append(0.0, 0.0);
    w.append(1.0, 5.0);
    w.append(2.0, 1.0);
    EXPECT_DOUBLE_EQ(measure::peak_time(w), 1.0);
}

TEST(Measure, RmsOfSine) {
    Waveform w("sin");
    constexpr int n = 2000;
    for (int i = 0; i <= n; ++i) {
        const double t = static_cast<double>(i) / n;
        w.append(t, std::sin(2.0 * M_PI * t));
    }
    EXPECT_NEAR(measure::rms(w), 1.0 / std::sqrt(2.0), 1e-3);
}

TEST(Measure, ErrorsBetweenWaveforms) {
    const Waveform a = ramp();
    Waveform b("b");
    b.append(0.0, 0.1);
    b.append(2.0, 4.1);
    EXPECT_NEAR(measure::max_abs_error(a, b), 0.1, 1e-12);
    EXPECT_NEAR(measure::rms_error(a, b), 0.1, 1e-6);
}

TEST(Csv, RoundTrip) {
    const Waveform a = ramp();
    Waveform b("other");
    b.append(0.0, 1.0);
    b.append(2.0, 3.0);
    std::ostringstream os;
    write_csv(os, {a, b});
    std::istringstream is(os.str());
    const auto read = read_csv(is);
    ASSERT_EQ(read.size(), 2u);
    EXPECT_EQ(read[0].label(), "ramp");
    EXPECT_EQ(read[1].label(), "other");
    EXPECT_NEAR(read[0].at(1.0), 2.0, 1e-9);
    EXPECT_NEAR(read[1].at(1.0), 2.0, 1e-9);
}

TEST(Csv, RejectsMalformed) {
    std::istringstream empty("");
    EXPECT_THROW((void)read_csv(empty), AnalysisError);
    std::istringstream bad("time,v\n0,abc\n");
    EXPECT_THROW((void)read_csv(bad), AnalysisError);
    std::istringstream short_row("time,v\n0\n");
    EXPECT_THROW((void)read_csv(short_row), AnalysisError);
}

TEST(Table, RendersAligned) {
    Table t({"col", "value"});
    t.add_row({"alpha", Table::num(1.5)});
    t.add_row({"beta", Table::num(22.125, 6)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22.125"), std::string::npos);
    EXPECT_NE(s.find('+'), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Validation) {
    EXPECT_THROW(Table{std::vector<std::string>{}}, AnalysisError);
    Table t({"a"});
    EXPECT_THROW(t.add_row({"x", "y"}), AnalysisError);
}

TEST(AsciiPlot, RendersSeries) {
    Waveform w("sine");
    for (int i = 0; i <= 100; ++i) {
        const double t = i / 100.0;
        w.append(t, std::sin(2.0 * M_PI * t));
    }
    std::ostringstream os;
    PlotOptions opt;
    opt.title = "test plot";
    ascii_plot(os, {w}, opt);
    const std::string s = os.str();
    EXPECT_NE(s.find("test plot"), std::string::npos);
    EXPECT_NE(s.find('*'), std::string::npos);
    EXPECT_NE(s.find("sine"), std::string::npos);
}

TEST(AsciiPlot, RejectsEmpty) {
    std::ostringstream os;
    EXPECT_THROW(ascii_plot(os, {}), AnalysisError);
    Waveform single("x");
    single.append(0.0, 1.0);
    EXPECT_THROW(ascii_plot(os, {single}), AnalysisError);
}

} // namespace
} // namespace nanosim::analysis
