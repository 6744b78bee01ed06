#include "workload/travel.h"

#include <utility>

#include "relational/join.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace jim::workload {

namespace {

rel::Relation MakeFlights() {
  rel::Relation flights{
      "Flights", rel::Schema::FromNames({"From", "To", "Airline"})};
  using rel::Value;
  // The four distinct flights appearing in Figure 1, in order.
  const char* rows[][3] = {
      {"Paris", "Lille", "AF"},
      {"Lille", "NYC", "AA"},
      {"NYC", "Paris", "AA"},
      {"Paris", "NYC", "AF"},
  };
  for (const auto& row : rows) {
    JIM_CHECK_OK(
        flights.AddRow({Value(row[0]), Value(row[1]), Value(row[2])}));
  }
  return flights;
}

rel::Relation MakeHotels() {
  rel::Relation hotels{"Hotels", rel::Schema::FromNames({"City", "Discount"})};
  using rel::Value;
  const char* rows[][2] = {
      {"NYC", "AA"},
      {"Paris", "None"},
      {"Lille", "AF"},
  };
  for (const auto& row : rows) {
    JIM_CHECK_OK(hotels.AddRow({Value(row[0]), Value(row[1])}));
  }
  return hotels;
}

}  // namespace

rel::Relation Figure1Instance() {
  // Figure 1 lists Flights × Hotels in row-major order (flight-major), so
  // build it exactly that way.
  auto product = rel::CrossProduct(
      MakeFlights(), MakeHotels(),
      rel::JoinOptions{.left_qualifier = "", .right_qualifier = "",
                       .result_name = "FlightHotel"});
  JIM_CHECK(product.ok());
  JIM_CHECK_EQ(product->num_rows(), size_t{12});
  return *std::move(product);
}

std::shared_ptr<const rel::Relation> Figure1InstancePtr() {
  return std::make_shared<const rel::Relation>(Figure1Instance());
}

std::shared_ptr<const core::TupleStore> Figure1StorePtr() {
  return core::MakeRelationStore(Figure1InstancePtr());
}

rel::Catalog TravelCatalog() {
  rel::Catalog catalog;
  JIM_CHECK_OK(catalog.Add(MakeFlights()));
  JIM_CHECK_OK(catalog.Add(MakeHotels()));
  return catalog;
}

rel::Catalog LargeTravelCatalog(size_t num_flights, size_t num_hotels,
                                size_t num_cities, size_t num_airlines,
                                util::Rng& rng) {
  // The RNG is consumed in a fixed order: all flights, then all hotels.
  using rel::Value;
  auto city = [&](size_t i) { return util::StrFormat("City%zu", i); };
  auto airline = [&](size_t i) { return util::StrFormat("Airline%zu", i); };

  rel::Relation flights{"Flights",
                        rel::Schema::FromNames({"From", "To", "Airline"})};
  for (size_t i = 0; i < num_flights; ++i) {
    const size_t from =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(num_cities) - 1));
    size_t to =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(num_cities) - 1));
    if (to == from) to = (to + 1) % num_cities;
    const size_t carrier = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(num_airlines) - 1));
    JIM_CHECK_OK(flights.AddRow(
        {Value(city(from)), Value(city(to)), Value(airline(carrier))}));
  }

  rel::Relation hotels{"Hotels", rel::Schema::FromNames({"City", "Discount"})};
  for (size_t i = 0; i < num_hotels; ++i) {
    const size_t where = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(num_cities) - 1));
    // A third of hotels have no discount, mirroring Figure 1's "None".
    const bool discounted = rng.UniformDouble() > 1.0 / 3.0;
    const std::string discount =
        discounted ? airline(static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(num_airlines) - 1)))
                   : "None";
    JIM_CHECK_OK(hotels.AddRow({Value(city(where)), Value(discount)}));
  }

  rel::Catalog catalog;
  JIM_CHECK_OK(catalog.Add(std::move(flights)));
  JIM_CHECK_OK(catalog.Add(std::move(hotels)));
  return catalog;
}

}  // namespace jim::workload
