// End-to-end tour of the survey service: observations are submitted to a
// SurveyService, each swept whole by single_pulse_search, and their
// candidates sealed into a checksummed on-disk archive that answers
// DM-range / S/N / time-window / key queries while the writer is still busy.
//
//   ./examples/survey_service [--observations N] [--seed N] [--dir PATH]
#include <filesystem>
#include <iostream>

#include "serve/service.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"

using namespace drapid;

namespace {

ObservationId beam_id(int beam) {
  ObservationId id;
  id.dataset = "DEMO";
  id.mjd = 60000.5;
  id.ra_deg = 83.6;
  id.dec_deg = 22.0;
  id.beam = beam;
  return id;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv,
               {{"observations", "3"}, {"seed", "11"}, {"dir", ""}});
  if (opts.help_requested()) {
    std::cout << opts.usage("survey_service",
                            "Survey service demo: observation ingest into "
                            "a queryable candidate archive.");
    return 0;
  }
  const int observations = static_cast<int>(opts.integer("observations"));
  const auto seed = static_cast<std::uint64_t>(opts.integer("seed"));
  std::string dir = opts.str("dir");
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "drapid_survey_demo")
              .string();
    std::filesystem::remove_all(dir);
  }

  serve::SurveyServiceConfig config;
  config.filterbank.num_channels = 32;
  config.filterbank.sample_time_ms = 2.0;
  config.filterbank.obs_length_s = 10.0;
  const DmGrid grid({{0.0, 60.0, 0.25}});

  serve::SurveyService service(dir, grid, config);
  Rng rng(seed);
  for (int beam = 0; beam < observations; ++beam) {
    Filterbank fb(config.filterbank);
    fb.add_noise(rng, 1.0);
    // One dispersed pulse per beam, drifting in DM and arrival time.
    fb.inject_pulse(2.0 + beam, 20.0 + 10.0 * beam, 3.0, 18.0);
    service.submit(beam_id(beam), fb);
  }
  service.drain();

  std::cout << "archive: " << service.archive().dir() << "\n"
            << "observations ingested: " << service.observations_ingested()
            << ", sealed segments: " << service.archive().num_segments()
            << ", candidates: " << service.archive().size() << "\n\n";

  struct Shown {
    const char* label;
    serve::Query q;
  };
  std::vector<Shown> queries;
  queries.push_back({"all candidates", {}});
  serve::Query dm_band;
  dm_band.dm_min = 25.0;
  dm_band.dm_max = 35.0;
  queries.push_back({"DM in [25, 35)", dm_band});
  serve::Query bright;
  bright.min_snr = 8.0;
  queries.push_back({"S/N >= 8", bright});
  serve::Query window;
  window.time_min = 1.5;
  window.time_max = 4.5;
  queries.push_back({"t in [1.5s, 4.5s)", window});
  serve::Query one_beam;
  one_beam.key = beam_id(0).key();
  queries.push_back({"beam 0 only", one_beam});

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"query", "matches", "best S/N", "best DM"});
  for (const auto& shown : queries) {
    const auto out = service.query(shown.q);
    double best_snr = 0.0, best_dm = 0.0;
    for (const auto& rec : out) {
      if (rec.event.snr > best_snr) {
        best_snr = rec.event.snr;
        best_dm = rec.event.dm;
      }
    }
    rows.push_back({shown.label, std::to_string(out.size()),
                    out.empty() ? "-" : format_number(best_snr),
                    out.empty() ? "-" : format_number(best_dm)});
  }
  std::cout << render_table(rows) << "\n";

  // The archive is durable: reopen it cold and re-run the first query.
  serve::CandidateArchive reopened(dir);
  std::cout << "reopened archive sees " << reopened.size()
            << " candidates across " << reopened.num_segments()
            << " segments\n";
  return 0;
}
