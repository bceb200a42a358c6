// Secure corporate e-mail with identity-based encryption and instant
// offboarding — the workload the paper's introduction motivates.
//
// A company runs one PKG (offline after onboarding) and one SEM (online).
// Employees exchange mail encrypted to e-mail addresses; ciphertexts
// cross the "wire" as bytes. When an employee leaves, a single revocation
// call instantly disables their decryption AND their signing capability,
// without re-keying anyone else — contrast with the validity-period
// approach, where the ex-employee keeps reading mail until the period
// ends and the PKG re-keys the whole company every period.
//
// Build & run:  cmake --build build && ./build/examples/secure_email
#include <iomanip>
#include <iostream>
#include <map>
#include <vector>

#include "hash/drbg.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"

namespace {

using namespace medcrypt;

// A fixed-size mail body (FullIdent encrypts one block; a real system
// would wrap a symmetric key — see README "hybrid encryption").
Bytes make_body(const std::string& text) {
  Bytes body = str_bytes(text);
  if (body.size() > 32) body.resize(32);
  body.resize(32, ' ');
  return body;
}

std::string body_text(const Bytes& body) {
  std::string s(body.begin(), body.end());
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

}  // namespace

int main() {
  hash::HmacDrbg rng(2026);  // deterministic demo

  // ---------------------------------------------------------------------
  // Company infrastructure.
  // ---------------------------------------------------------------------
  std::cout << "== ACME Corp secure mail ==\n";
  ibe::Pkg pkg(pairing::paper_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator mail_sem(pkg.params(), revocations);
  mediated::GdhMediator sig_sem(pairing::paper_params(), revocations);

  // Onboard three employees. After this loop the PKG could be unplugged.
  const std::vector<std::string> staff = {"alice@acme.com", "bob@acme.com",
                                          "carol@acme.com"};
  std::map<std::string, mediated::MediatedIbeUser> inbox;
  std::map<std::string, mediated::MediatedGdhUser> signer;
  for (const auto& id : staff) {
    inbox.emplace(id, enroll_ibe_user(pkg, mail_sem, id, rng));
    signer.emplace(id, enroll_gdh_user(pairing::paper_params(), sig_sem, id, rng));
    std::cout << "onboarded " << id << "\n";
  }
  std::cout << "(PKG goes offline; SEM stays online)\n\n";

  // ---------------------------------------------------------------------
  // Normal operation: signed, encrypted mail over a simulated LAN.
  // ---------------------------------------------------------------------
  sim::SimClock clock;
  sim::Transport lan(&clock, sim::LatencyModel::lan());

  auto send_mail = [&](const std::string& from, const std::string& to,
                       const std::string& text) {
    // Sender: sign, then encrypt to the recipient's address. Encryption
    // requires NO certificate fetch and no SEM contact.
    const Bytes body = make_body(text);
    const ec::Point signature = signer.at(from).sign(body, sig_sem, &lan);
    const auto ct = ibe::full_encrypt(pkg.params(), to, body, rng);
    const Bytes wire_ct = ct.to_bytes();

    // Receiver: decrypt (one SEM round trip), verify.
    const auto received = ibe::FullCiphertext::from_bytes(pkg.params(), wire_ct);
    const Bytes plain = inbox.at(to).decrypt(received, mail_sem, &lan);
    const bool sig_ok = gdh::verify(pairing::paper_params(),
                                    signer.at(from).public_key(), plain,
                                    signature);
    std::cout << from << " -> " << to << ": \"" << body_text(plain) << "\""
              << (sig_ok ? "  [signature OK]" : "  [SIGNATURE BAD]") << "\n";
  };

  send_mail("alice@acme.com", "bob@acme.com", "ship the release friday");
  send_mail("bob@acme.com", "alice@acme.com", "ack. tagging rc1 now");
  send_mail("carol@acme.com", "alice@acme.com", "payroll runs monday");

  std::cout << "\nwire totals so far: " << lan.stats().total_bytes()
            << " bytes in " << lan.stats().total_messages()
            << " SEM messages; virtual elapsed "
            << std::fixed << std::setprecision(2)
            << static_cast<double>(clock.now_ns()) / 1e6 << " ms\n\n";

  // ---------------------------------------------------------------------
  // Offboarding: Bob leaves. One call, effective immediately.
  // ---------------------------------------------------------------------
  std::cout << "== HR offboards bob@acme.com ==\n";
  revocations->revoke("bob@acme.com");

  // Mail already in Bob's mailbox cannot be opened anymore...
  const auto ct_for_bob = ibe::full_encrypt(pkg.params(), "bob@acme.com",
                                            make_body("old unread mail"), rng);
  try {
    (void)inbox.at("bob@acme.com").decrypt(ct_for_bob, mail_sem);
    std::cout << "ERROR: bob decrypted after revocation!\n";
    return 1;
  } catch (const RevokedError&) {
    std::cout << "bob's decryption: DENIED (instant, no re-keying)\n";
  }
  // ...and he cannot sign as ACME either.
  try {
    (void)signer.at("bob@acme.com").sign(make_body("I still work here"), sig_sem);
    std::cout << "ERROR: bob signed after revocation!\n";
    return 1;
  } catch (const RevokedError&) {
    std::cout << "bob's signing:    DENIED\n";
  }

  // Everyone else is untouched — no new keys, no new certificates.
  send_mail("alice@acme.com", "carol@acme.com", "bob is gone; rotate nothing");

  // ---------------------------------------------------------------------
  // Audit.
  // ---------------------------------------------------------------------
  const auto mail_stats = mail_sem.stats();
  const auto sig_stats = sig_sem.stats();
  std::cout << "\nSEM audit:\n"
            << "  mail tokens issued: " << mail_stats.tokens_issued
            << ", denials: " << mail_stats.denials << "\n"
            << "  sign tokens issued: " << sig_stats.tokens_issued
            << ", denials: " << sig_stats.denials << "\n"
            << "  revoked identities: " << revocations->size() << "\n";
  return 0;
}
