"""§V glimpse: seven correlated series together vs separately (ε = 0).

Paper: grouping saves 67.2 % storage on seven wind-park frequency series.
"""
from common import show


def main() -> None:
    from repro.experiments import glimpse_table

    show("T0 — §V glimpse: grouped vs separate (eps=0)", glimpse_table())


if __name__ == "__main__":
    main()
