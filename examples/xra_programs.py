"""XRA scripts — the language as PRISMA/DB users saw it.

A complete XRA session: DDL, bulk loading, the paper's queries in
textual form, a multi-statement atomic transaction, an intentionally
failing transaction (rolled back), and the transitive-closure extension.

Run with::

    python examples/xra_programs.py
"""

from repro import Database, Session, format_relation
from repro.extensions import DomainConstraint
from repro.xra import XRAInterpreter

SETUP = """
create beer (name: string, brewery: string, alcperc: real);
create brewery (name: string, city: string, country: string);

insert(beer, tuples[
    ('Pils',   'Guineken',  4.5);
    ('Pils',   'Grolsch',   4.5);
    ('Bock',   'Grolsch',   6.5);
    ('Tripel', 'Westmalle', 9.5)
]);
insert(brewery, tuples[
    ('Guineken',  'Amsterdam', 'Netherlands');
    ('Grolsch',   'Enschede',  'Netherlands');
    ('Westmalle', 'Malle',     'Belgium')
]);
"""

QUERIES = """
-- Example 3.1: Dutch beer names, duplicates preserved.
? proj[%1](sel[%6 = 'Netherlands'](join[%2 = %4](beer, brewery)));

-- Example 3.2: average alcohol percentage per country.
? groupby[(country), AVG, alcperc](join[%2 = %4](beer, brewery));

-- Example 4.1: Guineken raises alcohol by 10%.
update(beer, sel[brewery = 'Guineken'](beer), (%1, %2, %3 * 1.1));
? sel[brewery = 'Guineken'](beer);
"""

TRANSACTION = """
-- Move strong beers to an archive, atomically.
create archive (name: string, brewery: string, alcperc: real);
( strong := sel[alcperc > 6.0](beer);
  insert(archive, strong);
  delete(beer, strong);
  ? archive );
"""

FAILING = """
-- This transaction violates the alcperc > 0 constraint and rolls back.
( insert(beer, tuples[('Free', 'Grolsch', 0.0)]);
  insert(beer, tuples[('Negative', 'Grolsch', -2.0)]) );
"""

CLOSURE = """
create reachable (src: string, dst: string);
insert(reachable, tuples[
    ('Amsterdam', 'Enschede');
    ('Enschede',  'Malle');
    ('Malle',     'Brussels')
]);
? closure[src, dst](reachable);
"""


def show(result):
    for output in result.outputs:
        print(format_relation(output, show_multiplicity=True))
        print()


def main() -> None:
    db = Database()
    xra = XRAInterpreter(
        Session(
            db,
            constraints=[DomainConstraint("alc_pos", "beer", "alcperc > 0.0")],
        )
    )

    xra.run(SETUP)
    print("=== Paper queries (Examples 3.1 / 3.2 / 4.1) ===")
    show(xra.run(QUERIES))

    print("=== Atomic archive transaction ===")
    show(xra.run(TRANSACTION))
    print(f"beer now has {len(db['beer'])} tuples; archive has "
          f"{len(db['archive'])}.")

    print("\n=== Failing transaction (constraint violation) ===")
    result = xra.run(FAILING)
    print(f"committed: {result.committed}")
    print(f"error: {result.transactions[-1].error}")
    assert ("Free", "Grolsch", 0.0) not in db["beer"], "atomicity!"
    print("Neither insert survived — the whole bracket rolled back.")

    print("\n=== Transitive closure extension ===")
    show(xra.run(CLOSURE))

    print(f"Final logical time: {db.logical_time}")


if __name__ == "__main__":
    main()
