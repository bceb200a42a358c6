// Code-signing service: mediated GDH vs mediated RSA, side by side (§5).
//
// A build farm signs release artifacts through a SEM, so a leaked build
// key can be disabled instantly. The demo runs the same workflow over
// the paper's two candidates and prints the per-signature communication
// the paper compares: ~160-bit tokens (GDH) vs 1024-bit (mRSA).
//
// Build & run:  cmake --build build && ./build/examples/signing_service
// (IB-mRSA setup generates 1024-bit safe primes; expect ~20 s once.)
#include <iomanip>
#include <iostream>

#include "hash/drbg.h"
#include "mediated/ib_mrsa.h"
#include "mediated/mediated_gdh.h"
#include "pairing/params.h"

int main() {
  using namespace medcrypt;
  hash::HmacDrbg rng(4242);
  auto revocations = std::make_shared<mediated::RevocationList>();

  std::cout << "== release signing service ==\n";

  // --- mediated GDH side ------------------------------------------------
  mediated::GdhMediator gdh_sem(pairing::paper_params(), revocations);
  auto gdh_builder =
      enroll_gdh_user(pairing::paper_params(), gdh_sem, "builder-7", rng);

  // --- IB-mRSA side (paper-size 1024-bit Blum modulus, safe primes) ------
  std::cout << "generating 1024-bit IB-mRSA system (safe primes)...\n";
  mediated::IbMRsaSystem mrsa(
      mediated::IbMRsaSystem::Options{1024, 160, /*safe_primes=*/true}, rng);
  mediated::MRsaMediator mrsa_sem(revocations);
  auto mrsa_builder = enroll_mrsa_user(mrsa, mrsa_sem, "builder-7", rng);

  // --- sign an artifact through both -------------------------------------
  const Bytes artifact = str_bytes("release-1.4.2.tar.gz sha256=3b5c...");

  sim::Transport gdh_wire;
  const ec::Point gdh_sig = gdh_builder.sign(artifact, gdh_sem, &gdh_wire);
  std::cout << "\nmediated GDH signature:\n"
            << "  signature size: " << gdh_sig.to_bytes().size() << " bytes ("
            << gdh_sig.to_bytes().size() * 8 << " bits, compressed point)\n"
            << "  SEM token:      " << gdh_wire.stats().to_client.bytes
            << " bytes\n"
            << "  verified:       "
            << (gdh::verify(pairing::paper_params(), gdh_builder.public_key(),
                            artifact, gdh_sig)
                    ? "yes"
                    : "NO")
            << "\n";

  sim::Transport mrsa_wire;
  const bigint::BigInt mrsa_sig = mrsa_builder.sign(artifact, mrsa_sem, &mrsa_wire);
  std::cout << "mediated RSA (IB-mRSA) signature:\n"
            << "  signature size: " << mrsa.params().byte_size() << " bytes ("
            << mrsa.params().byte_size() * 8 << " bits)\n"
            << "  SEM token:      " << mrsa_wire.stats().to_client.bytes
            << " bytes\n"
            << "  verified:       "
            << (ib_mrsa_verify(mrsa.params(), "builder-7", artifact, mrsa_sig)
                    ? "yes"
                    : "NO")
            << "\n";

  const double ratio = static_cast<double>(mrsa_wire.stats().to_client.bytes) /
                       static_cast<double>(gdh_wire.stats().to_client.bytes);
  std::cout << std::fixed << std::setprecision(1)
            << "\nSEM->user communication ratio (mRSA / GDH): " << ratio
            << "x  (the paper's 1024 vs ~160-bit comparison)\n";

  // --- key leak: one revocation disables BOTH signing paths ---------------
  std::cout << "\nbuilder-7 key reported leaked; revoking...\n";
  revocations->revoke("builder-7");
  int denied = 0;
  try {
    (void)gdh_builder.sign(artifact, gdh_sem);
  } catch (const RevokedError&) {
    ++denied;
  }
  try {
    (void)mrsa_builder.sign(artifact, mrsa_sem);
  } catch (const RevokedError&) {
    ++denied;
  }
  std::cout << "signing denied on " << denied
            << "/2 paths; existing release signatures remain verifiable\n";
  return denied == 2 ? 0 : 1;
}
