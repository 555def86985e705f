// Battery/ESD model tests: bounds, efficiency accounting identities,
// rate limits, DoD, self-discharge, presets — parameterized across
// technologies and capacities.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "energy/battery.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gm::energy {
namespace {

BatteryConfig small_li() { return BatteryConfig::lithium_ion(kwh_to_j(10)); }

TEST(BatteryConfig, PresetsMatchLiterature) {
  const auto la = BatteryConfig::lead_acid(kwh_to_j(90));
  EXPECT_DOUBLE_EQ(la.depth_of_discharge, 0.8);
  EXPECT_DOUBLE_EQ(la.charge_efficiency, 0.75);
  EXPECT_DOUBLE_EQ(la.charge_rate_c_per_hour, 0.125);
  EXPECT_DOUBLE_EQ(la.discharge_to_charge_ratio, 10.0);
  EXPECT_NEAR(la.price_usd(), 90 * 200.0, 1e-6);
  EXPECT_NEAR(la.volume_l(), 90'000.0 / 78.0, 1e-6);

  const auto li = BatteryConfig::lithium_ion(kwh_to_j(90));
  EXPECT_DOUBLE_EQ(li.charge_efficiency, 0.85);
  EXPECT_DOUBLE_EQ(li.charge_rate_c_per_hour, 0.25);
  EXPECT_NEAR(li.price_usd(), 90 * 525.0, 1e-6);
  EXPECT_NEAR(li.volume_l(), 90'000.0 / 150.0, 1e-6);
  EXPECT_LT(li.volume_l(), la.volume_l());  // LI is denser
}

TEST(BatteryConfig, RateCaps) {
  const auto li = BatteryConfig::lithium_ion(kwh_to_j(10));
  // 0.25 C/h on 10 kWh = 2.5 kW charge cap, 12.5 kW discharge cap.
  EXPECT_NEAR(li.max_charge_w(), 2500.0, 1e-9);
  EXPECT_NEAR(li.max_discharge_w(), 12500.0, 1e-9);
}

TEST(BatteryConfig, ValidationRejectsNonsense) {
  BatteryConfig c = small_li();
  c.depth_of_discharge = 0.0;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = small_li();
  c.charge_efficiency = 1.5;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = small_li();
  c.self_discharge_per_day = 1.0;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = small_li();
  c.capacity_j = -1.0;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(Battery, StartsEmpty) {
  Battery b(small_li());
  EXPECT_DOUBLE_EQ(b.stored_j(), 0.0);
  EXPECT_DOUBLE_EQ(b.usable_capacity_j(), kwh_to_j(10) * 0.8);
  EXPECT_DOUBLE_EQ(b.headroom_j(), b.usable_capacity_j());
}

TEST(Battery, ChargeappliesEfficiency) {
  Battery b(small_li());
  const Joules drawn = b.charge(kwh_to_j(1), 3600.0);
  EXPECT_NEAR(drawn, kwh_to_j(1), 1e-6);  // under the rate cap
  EXPECT_NEAR(b.stored_j(), kwh_to_j(1) * 0.85, 1e-6);
  EXPECT_NEAR(b.conversion_loss_j(), kwh_to_j(1) * 0.15, 1e-6);
}

TEST(Battery, ChargeRateLimited) {
  Battery b(small_li());  // cap 2.5 kW
  const Joules drawn = b.charge(kwh_to_j(100), 3600.0);
  EXPECT_NEAR(drawn, 2500.0 * 3600.0, 1e-6);
}

TEST(Battery, ChargeHeadroomLimitedByDod) {
  Battery b(small_li());
  // Saturate: repeatedly offer large energy.
  for (int i = 0; i < 100; ++i) b.charge(kwh_to_j(100), 3600.0);
  EXPECT_NEAR(b.stored_j(), b.usable_capacity_j(), 1.0);
  EXPECT_DOUBLE_EQ(b.charge(kwh_to_j(1), 3600.0), 0.0);
}

TEST(Battery, DischargeDeliversWhatIsStored) {
  Battery b(small_li());
  b.charge(kwh_to_j(2), 3600.0);
  const Joules stored = b.stored_j();
  const Joules out = b.discharge(kwh_to_j(100), 3600.0);
  EXPECT_NEAR(out, stored, 1e-6);  // discharge efficiency 1.0
  EXPECT_NEAR(b.stored_j(), 0.0, 1e-6);
}

TEST(Battery, DischargeRateLimited) {
  BatteryConfig c = small_li();
  c.discharge_to_charge_ratio = 1.0;  // discharge cap = 2.5 kW
  Battery b(c);
  for (int i = 0; i < 10; ++i) b.charge(kwh_to_j(10), 3600.0);
  const Joules out = b.discharge(kwh_to_j(100), 3600.0);
  EXPECT_NEAR(out, 2500.0 * 3600.0, 1e-6);
}

TEST(Battery, DischargeEfficiencyAccounting) {
  BatteryConfig c = small_li();
  c.discharge_efficiency = 0.9;
  Battery b(c);
  b.charge(kwh_to_j(1), 3600.0);
  const Joules stored_before = b.stored_j();
  const Joules loss_before = b.conversion_loss_j();
  const Joules out = b.discharge(wh_to_j(100), 3600.0);
  EXPECT_NEAR(out, wh_to_j(100), 1e-6);
  EXPECT_NEAR(b.stored_j(), stored_before - wh_to_j(100) / 0.9, 1e-6);
  EXPECT_NEAR(b.conversion_loss_j() - loss_before,
              wh_to_j(100) * (1.0 / 0.9 - 1.0), 1e-6);
}

TEST(Battery, SelfDischargeDecaysStored) {
  Battery b(small_li());  // 0.1 %/day
  b.charge(kwh_to_j(2), 3600.0);
  const Joules before = b.stored_j();
  b.apply_self_discharge(kSecondsPerDay);
  EXPECT_NEAR(b.stored_j(), before * 0.999, 1.0);
  EXPECT_NEAR(b.self_discharge_loss_j(), before * 0.001, 1.0);
}

TEST(Battery, SelfDischargeCompoundsOverTime) {
  BatteryConfig c = small_li();
  c.self_discharge_per_day = 0.1;
  Battery b(c);
  b.charge(kwh_to_j(2), 3600.0);
  const Joules before = b.stored_j();
  for (int d = 0; d < 10; ++d) b.apply_self_discharge(kSecondsPerDay);
  EXPECT_NEAR(b.stored_j(), before * std::pow(0.9, 10), 10.0);
}

TEST(Battery, NegativeOperationsRejected) {
  Battery b(small_li());
  EXPECT_THROW(b.charge(-1.0, 10.0), InvalidArgument);
  EXPECT_THROW(b.discharge(-1.0, 10.0), InvalidArgument);
  EXPECT_THROW(b.apply_self_discharge(-1.0), InvalidArgument);
}

TEST(Battery, CapacityQueriesMatchOperations) {
  Battery b(small_li());
  const Joules can_charge = b.charge_capacity_j(3600.0);
  EXPECT_DOUBLE_EQ(b.charge(1e12, 3600.0), can_charge);
  const Joules can_out = b.discharge_capacity_j(3600.0);
  EXPECT_DOUBLE_EQ(b.discharge(1e12, 3600.0), can_out);
}

TEST(Battery, EquivalentCyclesCountDischarge) {
  Battery b(small_li());
  const Joules usable = b.usable_capacity_j();
  for (int i = 0; i < 20; ++i) {
    while (b.headroom_j() > 1.0) b.charge(kwh_to_j(10), 3600.0);
    while (b.stored_j() > 1.0) b.discharge(kwh_to_j(10), 3600.0);
  }
  EXPECT_NEAR(b.equivalent_cycles(), 20.0, 0.05);
  EXPECT_NEAR(b.total_discharged_out_j(), 20.0 * usable, usable * 0.01);
}

TEST(Battery, IdealPresetIsLossless) {
  Battery b(BatteryConfig::ideal(kwh_to_j(5)));
  const Joules in = b.charge(kwh_to_j(5), 3600.0);
  EXPECT_NEAR(in, kwh_to_j(5), 1e-6);
  EXPECT_NEAR(b.stored_j(), kwh_to_j(5), 1e-6);
  const Joules out = b.discharge(kwh_to_j(5), 3600.0);
  EXPECT_NEAR(out, kwh_to_j(5), 1e-6);
  EXPECT_DOUBLE_EQ(b.conversion_loss_j(), 0.0);
}

TEST(Battery, ZeroCapacityAcceptsNothing) {
  Battery b(BatteryConfig::lithium_ion(0.0));
  EXPECT_DOUBLE_EQ(b.charge(kwh_to_j(1), 3600.0), 0.0);
  EXPECT_DOUBLE_EQ(b.discharge(kwh_to_j(1), 3600.0), 0.0);
}

TEST(Battery, DegradationFadesCapacity) {
  BatteryConfig c = small_li();
  c.cycle_life_cycles = 100.0;  // aggressive, for test speed
  Battery b(c);
  EXPECT_DOUBLE_EQ(b.health_fraction(), 1.0);
  for (int i = 0; i < 50; ++i) {
    while (b.headroom_j() > 1.0) b.charge(kwh_to_j(10), 3600.0);
    while (b.stored_j() > 1.0) b.discharge(kwh_to_j(10), 3600.0);
  }
  // ~50 cycles of a 100-cycle life → ~10% fade (linear to 20% at EOL).
  EXPECT_LT(b.health_fraction(), 0.95);
  EXPECT_GT(b.health_fraction(), 0.85);
  EXPECT_LT(b.effective_usable_capacity_j(), b.usable_capacity_j());
  // Charging now tops out at the faded capacity.
  while (b.headroom_j() > 1.0) b.charge(kwh_to_j(10), 3600.0);
  EXPECT_NEAR(b.stored_j(), b.effective_usable_capacity_j(), 1.0);
}

TEST(Battery, DegradationFloorsAtEndOfLife) {
  BatteryConfig c = small_li();
  c.cycle_life_cycles = 2.0;
  Battery b(c);
  for (int i = 0; i < 30; ++i) {
    while (b.headroom_j() > 1.0) b.charge(kwh_to_j(10), 3600.0);
    while (b.stored_j() > 1.0) b.discharge(kwh_to_j(10), 3600.0);
  }
  EXPECT_DOUBLE_EQ(b.health_fraction(), 0.8);
}

TEST(Battery, DegradationDisabledByDefaultForCustom) {
  Battery b(BatteryConfig::ideal(kwh_to_j(5)));
  EXPECT_DOUBLE_EQ(b.health_fraction(), 1.0);
}

// --- property sweep: conservation identity across technologies/sizes

struct BatteryCase {
  BatteryTechnology tech;
  double capacity_kwh;
};

// Names each case ("lead-acid 40 kWh") in gtest output and in the ctest
// names discovered from it. Without this gtest dumps the struct's raw
// bytes, padding included, and the padding holds leftover stack data
// that changes from one process to the next.
void PrintTo(const BatteryCase& c, std::ostream* os) {
  *os << battery_technology_name(c.tech) << ' ' << c.capacity_kwh << " kWh";
}

class BatteryConservation
    : public ::testing::TestWithParam<BatteryCase> {};

TEST_P(BatteryConservation, EnergyIsConserved) {
  const auto param = GetParam();
  const BatteryConfig config =
      param.tech == BatteryTechnology::kLeadAcid
          ? BatteryConfig::lead_acid(kwh_to_j(param.capacity_kwh))
          : BatteryConfig::lithium_ion(kwh_to_j(param.capacity_kwh));
  Battery b(config);

  // Random-ish charge/discharge pattern (deterministic).
  double phase = 0.3;
  for (int step = 0; step < 500; ++step) {
    phase = phase * 3.9 * (1.0 - phase);  // logistic chaos in (0,1)
    const Joules amount = kwh_to_j(5.0 * phase);
    if (step % 3 == 0)
      b.discharge(amount, 900.0);
    else
      b.charge(amount, 900.0);
    if (step % 10 == 0) b.apply_self_discharge(3600.0);

    // Invariants at every step.
    EXPECT_GE(b.stored_j(), -1e-6);
    EXPECT_LE(b.stored_j(), b.usable_capacity_j() + 1e-6);
    // in = stored + out/σd_out_adjustment + conversion + self losses
    const Joules accounted =
        b.stored_j() + b.total_discharged_out_j() +
        b.conversion_loss_j() + b.self_discharge_loss_j();
    EXPECT_NEAR(b.total_charged_in_j(), accounted,
                1e-6 * std::max(1.0, b.total_charged_in_j()));
  }
}

// The closed identity audited by gm::audit at end of run, here driven
// directly with fade and the capacity-clamp writeoff in play:
//   total_in − total_out = Δstored + conversion + self + clamp
// to 1e-9 relative at every step.
TEST_P(BatteryConservation, ClosedIdentityHoldsUnderFadeAndClamp) {
  const auto param = GetParam();
  BatteryConfig config =
      param.tech == BatteryTechnology::kLeadAcid
          ? BatteryConfig::lead_acid(kwh_to_j(param.capacity_kwh))
          : BatteryConfig::lithium_ion(kwh_to_j(param.capacity_kwh));
  config.initial_soc_fraction = 0.6;
  config.cycle_life_cycles = 20.0;  // brutal fade: clamp writeoffs fire
  Battery b(config);

  double phase = 0.7;
  for (int step = 0; step < 800; ++step) {
    phase = phase * 3.97 * (1.0 - phase);  // logistic chaos in (0,1)
    const Joules amount = kwh_to_j(8.0 * phase);
    if (step % 4 == 0)
      b.discharge(amount, 1800.0);
    else
      b.charge(amount, 1800.0);
    if (step % 7 == 0) b.apply_self_discharge(1800.0);

    const Joules lhs =
        b.total_charged_in_j() - b.total_discharged_out_j();
    const Joules rhs = (b.stored_j() - b.initial_stored_j()) +
                       b.conversion_loss_j() +
                       b.self_discharge_loss_j() + b.clamp_loss_j();
    EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::abs(lhs)))
        << "step " << step;
    EXPECT_GE(b.clamp_loss_j(), 0.0);
  }
  // Fade actually engaged, so the clamp term was exercised, not idle.
  EXPECT_LT(b.health_fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    TechAndSize, BatteryConservation,
    ::testing::Values(BatteryCase{BatteryTechnology::kLeadAcid, 1.0},
                      BatteryCase{BatteryTechnology::kLeadAcid, 40.0},
                      BatteryCase{BatteryTechnology::kLeadAcid, 150.0},
                      BatteryCase{BatteryTechnology::kLithiumIon, 1.0},
                      BatteryCase{BatteryTechnology::kLithiumIon, 40.0},
                      BatteryCase{BatteryTechnology::kLithiumIon, 150.0}));

// Directed regression for the fade-writeoff path fixed in this change:
// charge() used to clamp stored energy to the (faded) capacity and
// silently drop the difference. It must be booked as clamp loss and
// the identity must still close.
TEST(Battery, FadeWriteoffIsBookedAsClampLoss) {
  BatteryConfig c = BatteryConfig::lithium_ion(kwh_to_j(10.0));
  c.initial_soc_fraction = 1.0;
  c.cycle_life_cycles = 0.1;  // one small discharge strands the SoC
  Battery b(c);

  b.discharge(kwh_to_j(0.5), 3600.0);
  // Fade outran the discharge: stored now exceeds effective capacity.
  ASSERT_GT(b.stored_j(), b.effective_usable_capacity_j());

  b.charge(kwh_to_j(1.0), 3600.0);  // no headroom: pure writeoff
  EXPECT_DOUBLE_EQ(b.stored_j(), b.effective_usable_capacity_j());
  EXPECT_GT(b.clamp_loss_j(), 0.0);
  const Joules lhs = b.total_charged_in_j() - b.total_discharged_out_j();
  const Joules rhs = (b.stored_j() - b.initial_stored_j()) +
                     b.conversion_loss_j() + b.self_discharge_loss_j() +
                     b.clamp_loss_j();
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::abs(lhs)));
}

}  // namespace
}  // namespace gm::energy
