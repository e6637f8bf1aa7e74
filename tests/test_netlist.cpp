// Tests for the Circuit container and the SPICE-like deck parser.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "devices/nanowire.hpp"
#include "devices/passives.hpp"
#include "devices/rtd.hpp"
#include "devices/sources.hpp"
#include "netlist/circuit.hpp"
#include "netlist/parser.hpp"
#include "timing_gate.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

// ---------------------------------------------------------------- circuit

TEST(Circuit, GroundAliases) {
    Circuit ckt;
    EXPECT_EQ(ckt.node("0"), k_ground);
    EXPECT_EQ(ckt.node("gnd"), k_ground);
    EXPECT_EQ(ckt.node("GND"), k_ground);
    EXPECT_EQ(ckt.num_nodes(), 0);
}

TEST(Circuit, NodesAreStableAndNamed) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(ckt.node("a"), a); // idempotent
    EXPECT_EQ(ckt.node_name(a), "a");
    EXPECT_EQ(ckt.find_node("b"), b);
    EXPECT_THROW((void)ckt.find_node("zz"), NetlistError);
}

TEST(Circuit, DuplicateDeviceNameThrows) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<Resistor>("R1", a, k_ground, 1e3);
    EXPECT_THROW(ckt.add<Resistor>("R1", a, k_ground, 2e3), NetlistError);
}

TEST(Circuit, BranchBasesAccumulate) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    ckt.add<VSource>("V1", a, k_ground, 1.0);  // branch 0
    ckt.add<Resistor>("R1", a, b, 1e3);        // none
    ckt.add<Inductor>("L1", b, k_ground, 1e-6); // branch 1
    EXPECT_EQ(ckt.num_branches(), 2);
    EXPECT_EQ(ckt.branch_base(0), 0);
    EXPECT_EQ(ckt.branch_base(2), 1);
    EXPECT_EQ(ckt.unknown_count(), 2 + 2);
}

TEST(Circuit, ValidateCatchesDanglingNode) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    (void)ckt.node("dangling");
    ckt.add<Resistor>("R1", a, k_ground, 1e3);
    EXPECT_THROW(ckt.validate(), NetlistError);
}

TEST(Circuit, ValidateCatchesNoGround) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    ckt.add<Resistor>("R1", a, b, 1e3);
    EXPECT_THROW(ckt.validate(), NetlistError);
}

TEST(Circuit, ValidateCatchesEmpty) {
    Circuit ckt;
    EXPECT_THROW(ckt.validate(), NetlistError);
}

TEST(Circuit, TypedLookup) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<Resistor>("R1", a, k_ground, 1e3);
    EXPECT_DOUBLE_EQ(ckt.get<Resistor>("R1").resistance(), 1e3);
    EXPECT_THROW((void)ckt.get<Capacitor>("R1"), NetlistError);
    EXPECT_THROW((void)ckt.get<Resistor>("R9"), NetlistError);
}

/// The text of the NetlistError `fn` throws ("" when it throws none).
template <typename Fn>
std::string netlist_error_text(Fn&& fn) {
    try {
        fn();
    } catch (const NetlistError& e) {
        return e.what();
    }
    return "";
}

TEST(Circuit, NameIndexServesEveryLookup) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    constexpr int k_devices = 10000;
    const auto name_of = [](int i) {
        return (i % 2 == 0 ? "R" : "C") + std::to_string(i);
    };
    for (int i = 0; i < k_devices; ++i) {
        if (i % 2 == 0) {
            ckt.add<Resistor>(name_of(i), a, k_ground, 1.0 + i);
        } else {
            ckt.add<Capacitor>(name_of(i), a, k_ground, 1e-12 * i);
        }
    }
    ASSERT_EQ(ckt.device_count(), static_cast<std::size_t>(k_devices));
    for (int i = 0; i < k_devices; ++i) {
        const Device* d = ckt.find(name_of(i));
        ASSERT_EQ(d, ckt.devices()[static_cast<std::size_t>(i)].get())
            << name_of(i);
    }
    EXPECT_DOUBLE_EQ(ckt.get<Resistor>("R9998").resistance(), 9999.0);
    EXPECT_DOUBLE_EQ(ckt.get<Capacitor>("C9999").capacitance(), 9999e-12);
    ckt.get_mutable<Resistor>("R4").set_resistance(7.0);
    EXPECT_DOUBLE_EQ(ckt.get<Resistor>("R4").resistance(), 7.0);

    // Absent names.
    EXPECT_EQ(ckt.find("R1"), nullptr);
    EXPECT_EQ(ckt.find("R10000"), nullptr);
    EXPECT_EQ(ckt.find(""), nullptr);
    EXPECT_EQ(netlist_error_text([&] { (void)ckt.get<Resistor>("R1"); }),
              "device 'R1' not found (or has unexpected type)");
    EXPECT_EQ(netlist_error_text(
                  [&] { (void)ckt.get_mutable<Resistor>("R10000"); }),
              "device 'R10000' not found (or has unexpected type)");

    // Wrong types.
    EXPECT_EQ(netlist_error_text([&] { (void)ckt.get<Capacitor>("R2"); }),
              "device 'R2' not found (or has unexpected type)");
    EXPECT_EQ(netlist_error_text(
                  [&] { (void)ckt.get_mutable<Resistor>("C3"); }),
              "device 'C3' not found (or has unexpected type)");

    // A duplicate is refused and leaves the circuit as it was.
    EXPECT_EQ(netlist_error_text([&] {
                  ckt.add<Capacitor>("R0", a, k_ground, 1e-12);
              }),
              "duplicate device name 'R0'");
    EXPECT_EQ(ckt.device_count(), static_cast<std::size_t>(k_devices));
    EXPECT_NE(dynamic_cast<const Resistor*>(ckt.find("R0")), nullptr);

    // The index survives moves of the Circuit.
    Circuit moved(std::move(ckt));
    EXPECT_EQ(moved.find("C9999"), moved.devices().back().get());
    EXPECT_DOUBLE_EQ(moved.get<Resistor>("R4").resistance(), 7.0);
    Circuit assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.find("R0"), assigned.devices().front().get());
    assigned.get_mutable<Capacitor>("C1").set_capacitance(2e-12);
    EXPECT_DOUBLE_EQ(assigned.get<Capacitor>("C1").capacitance(), 2e-12);
    assigned.add<Resistor>("R10000", a, k_ground, 5.0);
    EXPECT_EQ(assigned.find("R10000"), assigned.devices().back().get());
    EXPECT_EQ(netlist_error_text([&] {
                  assigned.add<Resistor>("C9999", a, k_ground, 5.0);
              }),
              "duplicate device name 'C9999'");
}

// ------------------------------------------------------------ parse_value

TEST(ParseValue, EngineeringSuffixes) {
    EXPECT_DOUBLE_EQ(parse_value("1k"), 1e3);
    EXPECT_DOUBLE_EQ(parse_value("2.5u"), 2.5e-6);
    EXPECT_DOUBLE_EQ(parse_value("10p"), 10e-12);
    EXPECT_DOUBLE_EQ(parse_value("3n"), 3e-9);
    EXPECT_DOUBLE_EQ(parse_value("4f"), 4e-15);
    EXPECT_DOUBLE_EQ(parse_value("7m"), 7e-3);
    EXPECT_DOUBLE_EQ(parse_value("1meg"), 1e6);
    EXPECT_DOUBLE_EQ(parse_value("2g"), 2e9);
    EXPECT_DOUBLE_EQ(parse_value("1.5"), 1.5);
    EXPECT_DOUBLE_EQ(parse_value("-3e-9"), -3e-9);
}

TEST(ParseValue, UnitDecorations) {
    EXPECT_DOUBLE_EQ(parse_value("5V"), 5.0);
    EXPECT_DOUBLE_EQ(parse_value("10pF"), 10e-12);
    EXPECT_DOUBLE_EQ(parse_value("100ns"), 100e-9);
}

TEST(ParseValue, MalformedThrows) {
    EXPECT_THROW((void)parse_value("abc"), NetlistError);
    EXPECT_THROW((void)parse_value(""), NetlistError);
    EXPECT_THROW((void)parse_value("1x"), NetlistError);
}

// ---------------------------------------------------------------- parser

TEST(Parser, BasicDivider) {
    const auto deck = parse_deck(R"(
* simple divider
V1 in 0 DC 5
R1 in out 1k
R2 out 0 1k
.op
)");
    EXPECT_EQ(deck.circuit.device_count(), 3u);
    EXPECT_EQ(deck.circuit.num_nodes(), 2);
    ASSERT_EQ(deck.analyses.size(), 1u);
    EXPECT_TRUE(std::holds_alternative<OpCard>(deck.analyses[0]));
}

TEST(Parser, RtdPrefixBeatsResistor) {
    const auto deck = parse_deck(R"(
V1 in 0 DC 1
RTD1 in 0
R1 in 0 50
)");
    EXPECT_EQ(deck.circuit.get<Rtd>("RTD1").kind(), DeviceKind::rtd);
    EXPECT_EQ(deck.circuit.get<Resistor>("R1").kind(),
              DeviceKind::resistor);
}

TEST(Parser, RtdModelCard) {
    const auto deck = parse_deck(R"(
.model myrtd RTD(A=2e-4 B=2 C=1.5 D=0.3 N1=0.35 N2=0.0172 H=1.43e-8)
V1 in 0 DC 1
RTD1 in 0 myrtd
)");
    const auto& rtd = deck.circuit.get<Rtd>("RTD1");
    EXPECT_DOUBLE_EQ(rtd.params().a, 2e-4);
    EXPECT_DOUBLE_EQ(rtd.params().n1, 0.35);
}

TEST(Parser, ModelMayFollowDevice) {
    const auto deck = parse_deck(R"(
D1 a 0 dd
V1 a 0 DC 1
.model dd D(IS=1e-12 N=1.5)
)");
    const auto& d = deck.circuit.get<Diode>("D1");
    EXPECT_DOUBLE_EQ(d.params().i_sat, 1e-12);
    EXPECT_DOUBLE_EQ(d.params().emission, 1.5);
}

TEST(Parser, MosfetWithInstanceOverrides) {
    const auto deck = parse_deck(R"(
.model nch NMOS(VTO=0.8 KP=5e-5 W=2u L=0.5u)
M1 d g 0 nch W=40u
V1 d 0 DC 3
V2 g 0 DC 3
)");
    const auto& m = deck.circuit.get<Mosfet>("M1");
    EXPECT_DOUBLE_EQ(m.params().vth, 0.8);
    EXPECT_DOUBLE_EQ(m.params().w, 40e-6);
    EXPECT_DOUBLE_EQ(m.params().l, 0.5e-6);
}

TEST(Parser, StimuliVariants) {
    const auto deck = parse_deck(R"(
V1 a 0 DC 2.5
V2 b 0 PULSE(0 5 10n 1n 1n 40n 100n)
V3 c 0 PWL(0 0 1u 5)
V4 d 0 SIN(0 1 1meg)
I1 a 0 1m
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
)");
    EXPECT_DOUBLE_EQ(deck.circuit.get<VSource>("V1").wave().value(0.0), 2.5);
    EXPECT_DOUBLE_EQ(deck.circuit.get<VSource>("V2").wave().value(30e-9),
                     5.0);
    EXPECT_DOUBLE_EQ(deck.circuit.get<VSource>("V3").wave().value(0.5e-6),
                     2.5);
    EXPECT_NEAR(deck.circuit.get<VSource>("V4").wave().value(0.25e-6), 1.0,
                1e-9);
    EXPECT_DOUBLE_EQ(deck.circuit.get<ISource>("I1").wave().value(0.0),
                     1e-3);
}

TEST(Parser, ContinuationLines) {
    const auto deck = parse_deck(R"(
V1 in 0 PULSE(0 5
+ 10n 1n 1n
+ 40n 100n)
R1 in 0 1k
)");
    EXPECT_DOUBLE_EQ(deck.circuit.get<VSource>("V1").wave().value(30e-9),
                     5.0);
}

TEST(Parser, CommentsAndInlineComments) {
    const auto deck = parse_deck(R"(
* full line comment
R1 a 0 1k ; inline comment
V1 a 0 DC 1
)");
    EXPECT_EQ(deck.circuit.device_count(), 2u);
}

TEST(Parser, AnalysisCards) {
    const auto deck = parse_deck(R"(
V1 in 0 DC 0
R1 in 0 1k
.dc V1 0 5 0.1
.tran 1n 100n
)");
    ASSERT_EQ(deck.analyses.size(), 2u);
    const auto& dc = std::get<DcCard>(deck.analyses[0]);
    EXPECT_EQ(dc.source, "V1");
    EXPECT_DOUBLE_EQ(dc.stop, 5.0);
    const auto& tran = std::get<TranCard>(deck.analyses[1]);
    EXPECT_DOUBLE_EQ(tran.tstep, 1e-9);
    EXPECT_DOUBLE_EQ(tran.tstop, 100e-9);
}

TEST(Parser, NanowireAndNoise) {
    const auto deck = parse_deck(R"(
.model wire NW(CHANNELS=6 VSTEP=0.4 SMEAR=0.02)
NW1 a 0 wire
NOISE1 a 0 1e-9
V1 a 0 DC 1
)");
    const auto& nw = deck.circuit.get<Nanowire>("NW1");
    EXPECT_EQ(nw.params().channels, 6);
    EXPECT_DOUBLE_EQ(nw.params().v_step, 0.4);
    EXPECT_DOUBLE_EQ(
        deck.circuit.get<NoiseCurrentSource>("NOISE1").sigma(), 1e-9);
}

TEST(Parser, ErrorsCarryLineNumbers) {
    try {
        (void)parse_deck("R1 a 0 1k\nBOGUS x y z\n");
        FAIL() << "expected NetlistError";
    } catch (const NetlistError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }
}

TEST(Parser, RejectsBadCards) {
    EXPECT_THROW((void)parse_deck(".bogus\n"), NetlistError);
    EXPECT_THROW((void)parse_deck(".model m FOO(A=1)\nR1 a 0 1\n"),
                 NetlistError);
    EXPECT_THROW((void)parse_deck("R1 a 0\n"), NetlistError);   // no value
    EXPECT_THROW((void)parse_deck("D1 a 0 nomodel\n"), NetlistError);
    EXPECT_THROW((void)parse_deck(".dc V1 0 5 0\nR1 a 0 1\n"),
                 NetlistError); // zero step
    EXPECT_THROW((void)parse_deck("+ continuation first\n"), NetlistError);
}

TEST(Parser, DuplicateModelThrows) {
    EXPECT_THROW((void)parse_deck(".model m D(IS=1e-14)\n"
                                  ".model m D(IS=1e-12)\nR1 a 0 1\n"),
                 NetlistError);
}

TEST(Parser, EndCardStopsParsing) {
    const auto deck = parse_deck(R"(
R1 a 0 1k
V1 a 0 DC 1
.end
THIS WOULD BE A SYNTAX ERROR
)");
    EXPECT_EQ(deck.circuit.device_count(), 2u);
}

TEST(Parser, TitleCard) {
    const auto deck = parse_deck(".title RTD test bench\nR1 a 0 1\nV1 a 0 DC 1\n");
    EXPECT_EQ(deck.title, "RTD test bench");
}

/// An RTD ladder deck of `stages` stages (R, RTD and C per stage).
std::string rtd_ladder_deck(int stages) {
    std::ostringstream deck;
    deck << "* RTD ladder\nV1 in 0 PULSE(0 5 50n 5n 5n 95n 200n)\n";
    std::string prev = "in";
    for (int i = 1; i <= stages; ++i) {
        const std::string node = "n" + std::to_string(i);
        deck << 'R' << i << ' ' << prev << ' ' << node << " 100\n"
             << "RTD" << i << ' ' << node << " 0\n"
             << 'C' << i << ' ' << node << " 0 100p\n";
        prev = node;
    }
    deck << ".end\n";
    return deck.str();
}

TEST(Parser, ParseTimeGrowsLinearlyWithTheDeck) {
    if (timing::sanitized()) {
        GTEST_SKIP() << timing::k_sanitized_skip;
    }
    // A deck 8x as long must parse in at most 16x the time: a device-name
    // check that scans every earlier device costs ~64x (31-32x measured
    // before the name index, where the per-card work still weighs in;
    // 8.6-9.5x after).
    const std::string small = rtd_ladder_deck(400);
    const std::string large = rtd_ladder_deck(3200);
    ASSERT_EQ(parse_deck(large).circuit.device_count(), 3u * 3200u + 1u);
    EXPECT_LE(timing::growth_ratio(
                  16.0, 3, 7, [&] { (void)parse_deck(small); },
                  [&] { (void)parse_deck(large); }),
              16.0)
        << "parse time of 3 200 stages over 400 stages";
}

} // namespace
} // namespace nanosim
